package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// fuzzSeedSubmit is a fully-populated submission frame for round-trip and
// corpus seeding.
func fuzzSeedSubmit() *SubmitFrame {
	return &SubmitFrame{
		Tenant: "acme",
		Seq:    7,
		AtSec:  0.125,
		Spec: &spectrum.Spectrum{
			ID:          "scan=42",
			PrecursorMZ: 900.45,
			Charge:      2,
			Peaks:       []spectrum.Peak{{MZ: 101.07, Intensity: 1200}, {MZ: 175.12, Intensity: 800}},
		},
	}
}

// fuzzSeedResult is the matching result frame.
func fuzzSeedResult() *ResultFrame {
	return &ResultFrame{
		Tenant:    "acme",
		Seq:       7,
		Batch:     3,
		QueryID:   "scan=42",
		ArriveSec: 0.125,
		DoneSec:   0.375,
		Hits: []topk.Hit{
			{Peptide: "PEPTIDEK", Protein: 2, ProteinID: "sp|P1", Mass: 904.47, Score: 42.5},
			{Peptide: "MK", Protein: 0, ProteinID: "sp|P0", Mass: 277.12, Score: 1.25},
		},
	}
}

// TestWireRoundTrip: Encode∘Decode is the identity on both frame types,
// including empty-field edge cases.
func TestWireRoundTrip(t *testing.T) {
	subs := []*SubmitFrame{
		fuzzSeedSubmit(),
		{Tenant: "", Seq: 0, AtSec: 0, Spec: &spectrum.Spectrum{}},
		// Charge is a signed field, as in core's query batches.
		{Tenant: "acme", Seq: 1, AtSec: 0.5, Spec: &spectrum.Spectrum{ID: "neg", Charge: -1}},
	}
	for i, f := range subs {
		got, err := DecodeSubmit(f.Encode())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("submit %d round trip: got %+v, want %+v", i, got, f)
		}
	}
	ress := []*ResultFrame{
		fuzzSeedResult(),
		{Tenant: "", QueryID: "", Hits: nil},
	}
	for i, f := range ress {
		got, err := DecodeResult(f.Encode())
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("result %d round trip: got %+v, want %+v", i, got, f)
		}
	}
}

// TestWireRejects pins the decoder's canonical-only contract: bad magic,
// bad version, truncation, trailing bytes, and count overruns all fail with
// errFrame, and the count overrun fails before allocating.
func TestWireRejects(t *testing.T) {
	valid := fuzzSeedSubmit().Encode()
	cases := map[string][]byte{
		"empty":     {},
		"badmagic":  append([]byte{0xff}, valid[1:]...),
		"badver":    append(append([]byte{}, valid[:4]...), append([]byte{9}, valid[5:]...)...),
		"truncated": valid[:len(valid)-3],
		"trailing":  append(append([]byte{}, valid...), 0),
	}
	// Peak-count overrun: a canonical header claiming 2^31 peaks with no
	// payload behind it.
	over := append([]byte{}, valid...)
	over = over[:len(over)-2*16] // strip the two 16-byte peaks
	over[len(over)-4] = 0xff     // count field now absurd
	over[len(over)-3] = 0xff
	over[len(over)-2] = 0xff
	over[len(over)-1] = 0x7f
	cases["overrun"] = over
	for name, b := range cases {
		if _, err := DecodeSubmit(b); !errors.Is(err, errFrame) {
			t.Errorf("submit %s: error %v is not errFrame", name, err)
		}
	}
	rvalid := fuzzSeedResult().Encode()
	if _, err := DecodeResult(rvalid[:len(rvalid)-1]); !errors.Is(err, errFrame) {
		t.Error("truncated result frame accepted")
	}
	if _, err := DecodeResult(valid); !errors.Is(err, errFrame) {
		t.Error("submit frame accepted by the result decoder")
	}
}

// FuzzDecodeSubmit: the submit decoder never panics, rejects non-canonical
// blobs with errFrame, and every accepted blob re-encodes to its exact
// input bytes.
func FuzzDecodeSubmit(f *testing.F) {
	valid := fuzzSeedSubmit().Encode()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xff
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeSubmit(b)
		if err != nil {
			if !errors.Is(err, errFrame) {
				t.Fatalf("DecodeSubmit error %v is not errFrame", err)
			}
			return
		}
		if !bytes.Equal(fr.Encode(), b) {
			t.Fatal("accepted submit frame does not re-encode to its input")
		}
	})
}

// FuzzDecodeResult is the result-frame counterpart of FuzzDecodeSubmit.
func FuzzDecodeResult(f *testing.F) {
	valid := fuzzSeedResult().Encode()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xff
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeResult(b)
		if err != nil {
			if !errors.Is(err, errFrame) {
				t.Fatalf("DecodeResult error %v is not errFrame", err)
			}
			return
		}
		if !bytes.Equal(fr.Encode(), b) {
			t.Fatal("accepted result frame does not re-encode to its input")
		}
	})
}
