package scenario_test

import (
	"bytes"
	"testing"

	"react/internal/scenario"
)

// FuzzParseSpec holds ParseSpec to a round trip: any spec it accepts must
// render through JSON and re-parse to the identical encoding. The seed
// corpus (testdata/fuzz/FuzzParseSpec) is the registered built-in specs.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.ParseSpec(data)
		if err != nil {
			return
		}
		enc, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := scenario.ParseSpec(enc)
		if err != nil {
			t.Fatalf("encoding of an accepted spec does not re-parse: %v\n%s", err, enc)
		}
		enc2, err := again.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the encoding:\n%s\n---\n%s", enc, enc2)
		}
	})
}
