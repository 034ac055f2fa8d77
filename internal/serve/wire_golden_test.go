package serve

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// TestWireGoldenBytes pins both client frame formats byte for byte: fixed,
// fully populated PSUB and PRES frames must encode to the committed blobs,
// which must decode and re-encode unchanged. Frame lengths are traced, so a
// layout change would move pepd's traces; round-trip and fuzz tests alone
// would not notice it.
//
//	go test ./internal/serve/ -run TestWireGoldenBytes -update
func TestWireGoldenBytes(t *testing.T) {
	sub := &SubmitFrame{
		Tenant: "acme",
		Seq:    1<<40 + 7,
		AtSec:  0.125,
		Spec: &spectrum.Spectrum{
			ID:          "scan=42",
			PrecursorMZ: 900.45,
			Charge:      3,
			Peaks:       []spectrum.Peak{{MZ: 101.07, Intensity: 1200}, {MZ: 175.12, Intensity: 800}, {MZ: 990.5, Intensity: 0}},
		},
	}
	res := &ResultFrame{
		Tenant:    "acme",
		Seq:       1<<40 + 7,
		Batch:     -3,
		QueryID:   "scan=42",
		ArriveSec: 0.125,
		DoneSec:   math.MaxFloat64,
		Hits: []topk.Hit{
			{Peptide: "PEPTIDEK", Protein: 2, ProteinID: "sp|P1", Mass: 904.47, Score: 42.5},
			{Peptide: "MK", Protein: -1, ProteinID: "", Mass: 277.12, Score: -1.25},
		},
	}
	for _, c := range []struct {
		name     string
		got      []byte
		reencode func([]byte) ([]byte, error)
	}{
		{"submit.golden", sub.Encode(), func(b []byte) ([]byte, error) {
			f, err := DecodeSubmit(b)
			if err != nil {
				return nil, err
			}
			return f.Encode(), nil
		}},
		{"result.golden", res.Encode(), func(b []byte) ([]byte, error) {
			f, err := DecodeResult(b)
			if err != nil {
				return nil, err
			}
			return f.Encode(), nil
		}},
	} {
		path := filepath.Join("testdata", c.name)
		if *update {
			if err := os.WriteFile(path, c.got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(c.got, want) {
			t.Fatalf("%s: encoding is %d bytes, golden %d bytes: the frame format changed", c.name, len(c.got), len(want))
		}
		back, err := c.reencode(want)
		if err != nil {
			t.Fatalf("%s: golden frame does not decode: %v", c.name, err)
		}
		if !bytes.Equal(back, want) {
			t.Fatalf("%s: golden frame does not re-encode to itself", c.name)
		}
	}
}
