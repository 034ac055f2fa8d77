package ckpt

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pepscale/internal/topk"
)

// update regenerates the committed golden bytes:
//
//	go test ./internal/ckpt/ -run TestGoldenBytes -update
var update = flag.Bool("update", false, "rewrite golden byte files")

// TestGoldenBytes pins the checkpoint format byte for byte: a fixed, fully
// populated group must encode to the committed blob, and the committed blob
// must decode and re-encode unchanged. Round-trip and fuzz tests alone would
// still pass if the field layout changed shape; checkpoint lengths are
// charged on the virtual clock, so a layout change moves every trace.
func TestGoldenBytes(t *testing.T) {
	g := &Group{
		Group:      5,
		Cursor:     -2,
		Candidates: 1<<40 + 3,
		Queries: []Query{
			{Hits: []topk.Hit{
				{Peptide: "PEPTIDEK", Protein: 2, ProteinID: "sp|P1|TEST", Mass: 904.47, Score: 42.5},
				{Peptide: "M[+15.99]K", Protein: -1, ProteinID: "", Mass: 293.11, Score: -1.25},
			}},
			{Hits: []topk.Hit{}},
			{Hits: []topk.Hit{
				{Peptide: "", Protein: 1 << 30, ProteinID: "tr|Q9", Mass: math.SmallestNonzeroFloat64, Score: math.Inf(-1)},
			}},
		},
	}
	path := filepath.Join("testdata", "group.golden")
	got := g.Encode()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode = %d bytes, golden %d bytes: the checkpoint format changed", len(got), len(want))
	}
	back, err := Decode(want)
	if err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
	if !bytes.Equal(back.Encode(), want) {
		t.Fatal("golden blob does not re-encode to itself")
	}
}
