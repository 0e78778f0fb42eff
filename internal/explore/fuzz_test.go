package explore

import "testing"

// FuzzParseSpace holds ParseSpace to its contract on untrusted bodies
// (POST /explorations, reactsim -explore): it never panics, and a space it
// accepts resolves again. The seed corpus (testdata/fuzz/FuzzParseSpace)
// is the documented example spaces.
func FuzzParseSpace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpace(data)
		if err != nil {
			return
		}
		if _, err := sp.Resolve(); err != nil {
			t.Fatalf("accepted space does not resolve again: %v\n%s", err, data)
		}
	})
}
