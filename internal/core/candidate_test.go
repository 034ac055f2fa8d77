package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/digest"
)

func TestCandWireRoundTrip(t *testing.T) {
	f := func(seed uint16, n8 uint8) bool {
		n := int(n8 % 8)
		entries := make([]candEntry, n)
		state := uint64(seed)*2654435761 + 7
		next := func(mod int) int {
			state = state*6364136223846793005 + 1
			return int((state >> 33) % uint64(mod))
		}
		const alphabet = "ACDEFGHIKLMNPQRSTVWY"
		for i := range entries {
			seq := make([]byte, next(40)+2)
			for j := range seq {
				seq[j] = alphabet[next(20)]
			}
			var sites []digest.ModSite
			for s := 0; s < next(3); s++ {
				sites = append(sites, digest.ModSite{Pos: uint16(next(len(seq))), Mod: uint8(next(2))})
			}
			entries[i] = candEntry{
				Mass:  500 + float64(next(400000))/100,
				GID:   int32(next(100000)),
				ID:    "PROT_" + string(alphabet[next(20)]),
				Seq:   seq,
				Sites: sites,
			}
		}
		buf, err := marshalCands(entries)
		if err != nil {
			return false
		}
		back, err := unmarshalCands(buf)
		if err != nil {
			return false
		}
		if n == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(entries, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCandWireRejectsOversize(t *testing.T) {
	big := candEntry{Seq: make([]byte, 300), ID: "x"}
	if _, err := marshalCands([]candEntry{big}); err == nil {
		t.Error("oversize sequence should be rejected")
	}
}

func TestCandWireTruncation(t *testing.T) {
	buf, err := marshalCands([]candEntry{{Mass: 900, GID: 3, ID: "p", Seq: []byte("MKR"), Sites: []digest.ModSite{{Pos: 1, Mod: 0}}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := unmarshalCands(buf[:cut]); err == nil {
			t.Errorf("truncation at %d undetected", cut)
		}
	}
}

// FuzzUnmarshalCands: the candidate-block decoder never panics, rejects
// every malformed blob with errWire, and every accepted blob re-encodes to
// its exact input bytes (the block lengths the comm-volume pass charges).
func FuzzUnmarshalCands(f *testing.F) {
	for _, entries := range [][]candEntry{
		nil,
		{{Mass: 900, GID: 3, ID: "p", Seq: []byte("MKR"), Sites: []digest.ModSite{{Pos: 1, Mod: 0}}}},
		{{Mass: 1042.5, GID: -1, ID: "PROT_A", Seq: []byte("PEPTIDEK")}, {Mass: 500, GID: 1 << 20, Seq: []byte("K"),
			Sites: []digest.ModSite{{Pos: 0, Mod: 1}, {Pos: 300, Mod: 2}}}},
	} {
		buf, err := marshalCands(entries)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		if len(buf) > 2 {
			f.Add(buf[:len(buf)-2])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, err := unmarshalCands(b)
		if err != nil {
			if !errors.Is(err, errWire) {
				t.Fatalf("error %v is not errWire", err)
			}
			return
		}
		re, err := marshalCands(entries)
		if err != nil {
			t.Fatalf("accepted blob does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatal("accepted blob is not canonical")
		}
	})
}

// TestCandidateEngineAgrees is the headline correctness property: the
// candidate-transport engine returns exactly the hit lists of the serial
// reference.
func TestCandidateEngineAgrees(t *testing.T) {
	in := testInput(t, 80, 10)
	opt := testOptions()
	ref, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 5, 8} {
		res, err := Run(AlgoCandidate, clusterCfg(p), in, opt)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		queriesEqual(t, "candidate/p="+itoa(p), ref.Queries, res.Queries)
		if res.Metrics.Candidates != ref.Metrics.Candidates {
			t.Errorf("p=%d: candidates %d vs %d", p, res.Metrics.Candidates, ref.Metrics.Candidates)
		}
	}
}

// TestCandidateEngineSavesDigestion: the engine's motivation — each rank
// digests only its own block once, so total digestion compute is ~1/p of
// Algorithm A's (which re-digests every transported block).
func TestCandidateEngineSavesDigestion(t *testing.T) {
	in := testInput(t, 150, 6)
	opt := testOptions()
	// Make digestion expensive relative to scoring so the saving shows in
	// total compute ("a dominant fraction of the query processing time is
	// spent on generating candidates on-the-fly").
	cost := cluster.GigabitCluster()
	cost.DigestSecPerResidue = 2e-6
	cfg := cluster.Config{Ranks: 8, Cost: cost}
	ra, err := Run(AlgoA, cfg, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(AlgoCandidate, cfg, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	var computeA, computeC float64
	for i := range ra.Metrics.PerRank {
		computeA += ra.Metrics.PerRank[i].ComputeSec
		computeC += rc.Metrics.PerRank[i].ComputeSec
	}
	if computeC >= computeA*0.6 {
		t.Errorf("candidate transport did not save digestion compute: %v vs %v", computeC, computeA)
	}
	if rc.Metrics.RunSec >= ra.Metrics.RunSec {
		t.Errorf("candidate transport slower (%v) than A (%v) on digest-heavy workload", rc.Metrics.RunSec, ra.Metrics.RunSec)
	}
}

// TestCandidateBandRestriction: mass-banded candidate blocks mean a rank
// only fetches blocks intersecting its query windows, so RMA traffic drops
// versus fetching everything.
func TestCandidateBandRestriction(t *testing.T) {
	in := testInput(t, 120, 24)
	opt := testOptions()
	res, err := Run(AlgoCandidate, clusterCfg(8), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Queries are co-partitioned with the candidate bands, so a rank only
	// fetches neighbouring bands whose ranges its query windows cross —
	// far fewer one-sided gets than Algorithm A's p−1 per rank.
	var getsC int64
	for _, rm := range res.Metrics.PerRank {
		getsC += rm.Messages
	}
	full, err := Run(AlgoA, clusterCfg(8), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	var getsA int64
	for _, rm := range full.Metrics.PerRank {
		getsA += rm.Messages
	}
	if getsC >= getsA/2 {
		t.Errorf("candidate engine issued %d gets vs A's %d — bands not restricting", getsC, getsA)
	}
	if res.Metrics.SortSec <= 0 {
		t.Error("candidate engine should report its sorting time")
	}
}

// TestCandidateEngineEdgeCases mirrors the engine-wide edge cases.
func TestCandidateEngineEdgeCases(t *testing.T) {
	opt := testOptions()
	t.Run("no-queries", func(t *testing.T) {
		in := testInput(t, 30, 4)
		in.Queries = nil
		res, err := Run(AlgoCandidate, clusterCfg(4), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Queries) != 0 {
			t.Error("results for empty query set")
		}
	})
	t.Run("more-ranks-than-records", func(t *testing.T) {
		in := testInput(t, 5, 3)
		ref, err := Serial(in, opt, cluster.GigabitCluster())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(AlgoCandidate, clusterCfg(12), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		queriesEqual(t, "candidate-tiny", ref.Queries, res.Queries)
	})
	t.Run("with-mods", func(t *testing.T) {
		in := testInput(t, 40, 5)
		o := opt
		o.Digest.Mods = []chem.Mod{chem.OxidationM}
		o.Digest.MaxModsPerPeptide = 1
		ref, err := Serial(in, o, cluster.GigabitCluster())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(AlgoCandidate, clusterCfg(4), in, o)
		if err != nil {
			t.Fatal(err)
		}
		queriesEqual(t, "candidate-mods", ref.Queries, res.Queries)
	})
}
