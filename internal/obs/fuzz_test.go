package obs

import "testing"

// FuzzParseTraceparent holds the traceparent parser — run on every HTTP
// request's header — to its contract: it never panics, and any header it
// accepts yields a valid context that renders back to a header parsing to
// the same context. The seed corpus (testdata/fuzz/FuzzParseTraceparent)
// covers valid, uppercase, all-zero and wrong-version headers.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", h, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", h, sc)
		}
		again, ok := ParseTraceparent(sc.Traceparent())
		if !ok || again != sc {
			t.Fatalf("accepted %q, but its rendering %q parses to %+v, %v", h, sc.Traceparent(), again, ok)
		}
	})
}
