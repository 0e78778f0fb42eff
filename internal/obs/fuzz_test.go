package obs

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseTraceparent holds the traceparent parser — run on every HTTP
// request's header — to its contract: it never panics, and any header it
// accepts yields a valid context that renders back to a header parsing to
// the same context. The seed corpus (testdata/fuzz/FuzzParseTraceparent)
// covers valid, uppercase, non-hex-flag, all-zero and wrong-version
// headers.
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

// FuzzParsePrometheus holds the exposition parser — CI's and perfbench's
// reader of every /metrics scrape — to its contract: it never panics, and
// every sample of an exposition it accepts, rendered back as a
// `series value` line, parses to the same series and value. Seeds are the
// exposition of a registry holding every metric kind and escaped label
// values, and the malformed shapes the parser must reject.
func FuzzParsePrometheus(f *testing.F) {
	f.Add(render(f, mixedRegistry(), (*Registry).WritePrometheus))
	f.Add("a{x=\"1\",y=\"\\n\"} NaN 1700000000\nb -Inf\n# comment\n")
	for _, bad := range []string{"no_value\n", `unterminated{le="1 3`, "dup 1\ndup 2\n", `bad{k="\t"} 1`} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParsePrometheus(strings.NewReader(text))
		if err != nil {
			return
		}
		var b strings.Builder
		for series, v := range samples {
			b.WriteString(series + " " + formatFloat(v) + "\n")
		}
		again, err := ParsePrometheus(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("accepted %q, but its samples re-rendered as %q do not parse: %v", text, b.String(), err)
		}
		if len(again) != len(samples) {
			t.Fatalf("accepted %q as %d samples; re-rendered, %d", text, len(samples), len(again))
		}
		for series, v := range samples {
			w, ok := again[series]
			if !ok || (w != v && !(math.IsNaN(v) && math.IsNaN(w))) {
				t.Fatalf("sample %s = %g parsed back as %g (present %v)", series, v, w, ok)
			}
		}
	})
}
