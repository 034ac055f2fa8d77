package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pepscale/internal/digest"
	"pepscale/internal/placement"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// checkGoldenBytes compares an encoding against its committed file under
// testdata/ (rewritten with -update), then checks that the committed bytes
// decode and re-encode unchanged.
func checkGoldenBytes(t *testing.T, name string, got []byte, reencode func([]byte) ([]byte, error)) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%s: encoding is %d bytes, golden %d bytes: the format changed", name, len(got), len(want))
	}
	back, err := reencode(want)
	if err != nil {
		t.Fatalf("%s: golden blob does not decode: %v", name, err)
	}
	if !bytes.Equal(back, want) {
		t.Fatalf("%s: golden blob does not re-encode to itself", name)
	}
}

// TestWireGoldenBytes pins every binary format core ships between ranks —
// the gathered results, routed query batches, elastic admission hand-offs
// and candidate blocks — byte for byte against fixed, fully populated
// samples. Blob lengths are charged on the virtual clock, so a layout
// change would move every trace; round-trip and fuzz tests alone would not
// notice it.
//
//	go test ./internal/core/ -run TestWireGoldenBytes -update
func TestWireGoldenBytes(t *testing.T) {
	t.Run("results", func(t *testing.T) {
		rs := []QueryResult{
			{Index: 4, ID: "scan=4", ParentMass: 1042.55, Hits: []topk.Hit{
				{Peptide: "PEPTIDEK", Protein: 1, ProteinID: "sp|P1", Mass: 904.47, Score: 37.5},
				{Peptide: "M[+15.99]K", Protein: -1, ProteinID: "", Mass: 293.11, Score: -2.25},
			}},
			{Index: 0, ID: "", ParentMass: math.SmallestNonzeroFloat64},
			{Index: 1 << 20, ID: "scan=9", ParentMass: 0, Hits: []topk.Hit{
				{Peptide: "K", Protein: 1 << 30, ProteinID: "tr|Q9", Mass: 146.1, Score: math.Inf(1)},
			}},
		}
		checkGoldenBytes(t, "results.golden", encodeResults(rs), func(b []byte) ([]byte, error) {
			back, err := decodeResults(b)
			return encodeResults(back), err
		})
	})
	t.Run("batch", func(t *testing.T) {
		m := batchMsg{
			Indices: []int{7, 0, 1 << 20},
			Specs: []*spectrum.Spectrum{
				{ID: "q7", PrecursorMZ: 521.3, Charge: 2, Peaks: []spectrum.Peak{{MZ: 101.1, Intensity: 3}, {MZ: 250.2, Intensity: 1.5}}},
				{ID: "", PrecursorMZ: 0, Charge: -1},
				{ID: "q12", PrecursorMZ: 930.4, Charge: 3, Peaks: []spectrum.Peak{{MZ: 88.04, Intensity: 0.25}}},
			},
		}
		checkGoldenBytes(t, "batch.golden", encodeBatch(m), func(b []byte) ([]byte, error) {
			back, err := decodeBatch(b)
			return encodeBatch(back), err
		})
	})
	t.Run("admission", func(t *testing.T) {
		const p0 = 4
		st := &elasticState{
			layout: layout{
				plan: &placement.Plan{Blocks: p0, Groups: p0, Members: []int{0, 2, 5},
					BlockOwner: []int{0, 2, 5, 0}, GroupOwner: []int{2, 5, 0, 2}},
				gen:   []int32{0, 3, 1, 0},
				bases: []int32{0, 40, 77, 120},
			},
			eventIdx: 2,
			s:        9,
		}
		newMembers := []int{0, 2, 5, 6}
		want := &admission{step: 9, eventIdx: 2, oldMembers: st.plan.Members, newMembers: newMembers,
			bases: st.bases, gen: st.gen, blockOwner: st.plan.BlockOwner, groupOwner: st.plan.GroupOwner}
		checkGoldenBytes(t, "admission.golden", encodeAdmission(st, newMembers, p0), func(b []byte) ([]byte, error) {
			ad, err := decodeAdmission(b, p0)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(ad, want) {
				t.Errorf("golden admission decodes to %+v, want %+v", ad, want)
			}
			back := &elasticState{layout: layout{plan: &placement.Plan{Members: ad.oldMembers,
				BlockOwner: ad.blockOwner, GroupOwner: ad.groupOwner}, gen: ad.gen, bases: ad.bases},
				eventIdx: ad.eventIdx, s: ad.step}
			return encodeAdmission(back, ad.newMembers, p0), nil
		})
	})
	t.Run("candidates", func(t *testing.T) {
		entries := []candEntry{
			{Mass: 904.47, GID: 3, ID: "sp|P1", Seq: []byte("PEPTIDEK"), Sites: []digest.ModSite{{Pos: 0, Mod: 1}, {Pos: 300, Mod: 2}}},
			{Mass: 146.1, GID: -1, ID: "", Seq: []byte("K")},
			{Mass: 1234.5, GID: 1 << 30, ID: "tr|Q9", Seq: []byte("MKRSTV"), Sites: []digest.ModSite{{Pos: 5, Mod: 0}}},
		}
		blob, err := marshalCands(entries)
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenBytes(t, "candidates.golden", blob, func(b []byte) ([]byte, error) {
			back, err := unmarshalCands(b)
			if err != nil {
				return nil, err
			}
			return marshalCands(back)
		})
	})
}
