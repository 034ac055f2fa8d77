package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pepscale/internal/binfmt"
	"pepscale/internal/topk"
)

func sampleGroup(seed int64) *Group {
	rng := rand.New(rand.NewSource(seed))
	g := &Group{Group: int32(rng.Intn(16)), Cursor: int32(rng.Intn(8)), Candidates: rng.Int63n(1 << 40)}
	nq := rng.Intn(5)
	g.Queries = make([]Query, nq)
	for i := range g.Queries {
		nh := rng.Intn(4)
		hits := make([]topk.Hit, nh)
		for j := range hits {
			hits[j] = topk.Hit{
				Peptide:   string(rune('A'+rng.Intn(26))) + "EPTIDEK",
				Protein:   int32(rng.Intn(1000)),
				ProteinID: "sp|P12345|TEST",
				Mass:      rng.Float64() * 3000,
				Score:     rng.NormFloat64() * 10,
			}
		}
		g.Queries[i].Hits = hits
	}
	return g
}

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := sampleGroup(seed)
		blob := g.Encode()
		back, err := Decode(blob)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(g, back) {
			t.Fatalf("seed %d: round-trip mismatch:\n%+v\n%+v", seed, g, back)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := sampleGroup(7)
	if !bytes.Equal(g.Encode(), g.Encode()) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	g := sampleGroup(3)
	blob := g.Encode()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:len(blob)-3],
		"badMagic":  append([]byte{0, 0, 0, 0}, blob[4:]...),
		"trailing":  append(append([]byte{}, blob...), 0xff),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestDecodeHugeCountRejected(t *testing.T) {
	// A blob claiming 2^31 queries must be rejected before allocating.
	var b []byte
	b = append(b, blobHeader(0, 0, 0)...)
	b = binfmt.U32(b, 1<<31-1)
	if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func blobHeader(group, cursor int32, cand int64) []byte {
	var b []byte
	b = binfmt.U32(b, magic)
	b = binfmt.U32(b, version)
	b = binfmt.U32(b, uint32(group))
	b = binfmt.U32(b, uint32(cursor))
	b = binfmt.U64(b, uint64(cand))
	return b
}

func TestStore(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get(1); ok {
		t.Fatal("empty store returned a blob")
	}
	s.Put(1, []byte("one"))
	s.Put(2, []byte("two"))
	s.Put(1, []byte("one-v2")) // replaces
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := s.Writes(); got != 3 {
		t.Fatalf("Writes = %d, want 3", got)
	}
	if got := s.Bytes(); got != int64(len("one")+len("two")+len("one-v2")) {
		t.Fatalf("Bytes = %d", got)
	}
	blob, ok := s.Get(1)
	if !ok || string(blob) != "one-v2" {
		t.Fatalf("Get(1) = %q, %v", blob, ok)
	}
	// Returned blob is a private copy.
	blob[0] = 'X'
	again, _ := s.Get(1)
	if string(again) != "one-v2" {
		t.Fatal("Get returned a shared slice")
	}
}
