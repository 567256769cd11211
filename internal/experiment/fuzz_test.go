package experiment

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzDecodeSpec drives the spec decoder with arbitrary input. It must
// never panic, and the encoding of any spec it accepts must be a fixed
// point: decoding and re-encoding it reproduces it byte for byte.
func FuzzDecodeSpec(f *testing.F) {
	// Seed with a committed spec file, as vmtreport -emit-specs writes
	// it, plus the three malformed shapes every strict reader rejects.
	spec, err := os.ReadFile("../../results/specs/inlet-variation.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(spec))
	f.Add(string(bytes.TrimSpace(spec)) + "}")
	f.Add(string(spec) + string(spec))
	f.Add(strings.Replace(string(spec), "{", `{"reducers":"peak_reduction",`, 1))
	f.Add(`{"name":"x","reducer":"peak_reduction"}`)
	f.Add(`{"name":"x","reducer":"peak_reduction","axes":[{"name":"gv","values":[1,2]},{"name":"c","cases":[{"name":"a","set":{"k":[1,{"n":null}]}}]}]}`)
	f.Add(`{"name":"","reducer":"peak_reduction"}`)
	f.Add(`{"name":"x","reducer":"nope"}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, input string) {
		s, err := DecodeSpec(strings.NewReader(input))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.Encode(&first); err != nil {
			t.Fatalf("encode of an accepted spec failed: %v", err)
		}
		again, err := DecodeSpec(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of the re-encoded spec failed: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n first: %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
