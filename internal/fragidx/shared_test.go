package fragidx

import (
	"math"
	"sync"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
)

// TestTierConcurrent is the race stress test of a shared index: p
// goroutines, each walking every (maxZ, kind) in its own order, call Tier on
// one Index at once. Every tier must come back as one pointer to all of
// them and be built exactly once; afterwards a reader of a built tier must
// not allocate.
func TestTierConcurrent(t *testing.T) {
	const p, maxZ = 8, 4
	params := digest.DefaultParams()
	cfg := score.DefaultConfig()
	cfg.Theoretical.MaxFragmentCharge = maxZ
	ix, _, _ := fragIdxFixture(t, 60, 1, params, cfg)

	idx0, tiers0 := Builds()
	fx := New(ix, params.Mods, cfg)
	type req struct {
		z    int
		kind Kind
	}
	var reqs []req
	for z := 1; z <= maxZ; z++ {
		reqs = append(reqs, req{z, KindMatch}, req{z, KindPasses})
	}
	got := make([][]*Tier, p)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < p; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			got[g] = make([]*Tier, len(reqs))
			start.Wait()
			for k := range reqs {
				i := (k + g*3) % len(reqs) // every goroutine starts elsewhere
				got[g][i] = fx.Tier(reqs[i].z, reqs[i].kind)
			}
		}(g)
	}
	start.Done()
	done.Wait()

	for i, r := range reqs {
		want := got[0][i]
		if want == nil || want.MaxZ() != r.z || want.Kind() != r.kind {
			t.Fatalf("tier (%d, %d): got %+v", r.z, r.kind, want)
		}
		for g := 1; g < p; g++ {
			if got[g][i] != want {
				t.Fatalf("tier (%d, %d): goroutine %d got a second pointer", r.z, r.kind, g)
			}
		}
	}
	idx1, tiers1 := Builds()
	if idx1-idx0 != 1 || tiers1-tiers0 != int64(len(reqs)) || fx.BuiltTiers() != len(reqs) {
		t.Fatalf("built %d indexes and %d tiers (index holds %d), want 1 and %d",
			idx1-idx0, tiers1-tiers0, fx.BuiltTiers(), len(reqs))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, r := range reqs {
			fx.Tier(r.z, r.kind)
		}
	}); allocs != 0 {
		t.Errorf("reading built tiers allocated %v times", allocs)
	}
	if _, tiers2 := Builds(); tiers2 != tiers1 {
		t.Errorf("reading built tiers built %d more", tiers2-tiers1)
	}
}

// TestPassTierUnpackableBlock: a block holding a peptide whose per-pass
// fragment slots exceed the packable range has no passes tier at any
// charge cap that overflows (the scan full-scores instead), while its match
// tier is still built and indexes the long peptide.
func TestPassTierUnpackableBlock(t *testing.T) {
	long := make([]byte, 80)
	for i := range long {
		long[i] = "ACDEFGHIKLMNPQRSTVWY"[i%20]
	}
	peps := []digest.Peptide{
		{Seq: []byte("PEPTIDEK"), Mass: 900},
		{Seq: long, Mass: 9000}, // ordinal 1 in mass order
	}
	ix, err := digest.IndexFromPeptides(peps, digest.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fx := New(ix, nil, score.DefaultConfig())
	// 2·(80−1)·z slots per pass: z = 6 and 7 overflow the 1024 packable ones.
	for z := 1; z <= maxPassCharge; z++ {
		overflow := 2*(len(long)-1)*z > maxSlot+1
		if got := fx.Tier(z, KindPasses); (got == nil) != overflow {
			t.Errorf("maxZ %d: passes tier %v, want nil = %v", z, got, overflow)
		}
	}
	m := fx.Tier(maxPassCharge, KindMatch)
	if m == nil {
		t.Fatal("no match tier")
	}
	const ord = 1
	if m.PepLen(ord) != len(long) || int(m.NFrags(ord)) != 2*(len(long)-1)*maxPassCharge {
		t.Errorf("long peptide: len %d, %d fragments", m.PepLen(ord), m.NFrags(ord))
	}
}

// TestSweepPassesMatchesWalk: the bin-major sweep accumulates the same
// matched likelihood terms as the row-major walk, up to summation order,
// for every query of a tile — including a query without a tier and one
// with an empty window, which accumulate nothing — and an unmatched lane
// is exactly zero in both.
func TestSweepPassesMatchesWalk(t *testing.T) {
	params := digest.DefaultParams()
	params.Mods = []chem.Mod{chem.OxidationM}
	params.MaxModsPerPeptide = 1
	cfg := score.DefaultConfig()
	ix, fx, qs := fragIdxFixture(t, 80, 8, params, cfg)
	n := ix.Len()

	tile := make([]PassQuery, len(qs))
	bqs := make([]score.BatchQuery, len(qs))
	for i, q := range qs {
		bqs[i] = score.Batch(q)
		maxZ := spectrum.EffectiveMaxFragmentCharge(cfg.Theoretical, q.Charge)
		pq := PassQuery{Tier: fx.Tier(maxZ, KindPasses), Start: 0, End: n}
		pq.Bins, pq.Intens = bqs[i].Peaks()
		pq.LP0, pq.L1P0 = bqs[i].OccLogs()
		tile[i] = pq
	}
	tile[1].Tier = nil
	tile[2].Start, tile[2].End = n/2, n/2

	var sweep, walk Scratch
	sweep.Begin(fx)
	sweep.SweepPasses(tile)
	walk.Begin(fx)
	matched := 0
	for i, pq := range tile {
		if pq.Tier == nil || pq.End <= pq.Start {
			continue
		}
		walk.Begin(fx) // a fresh scan: queries of the tile are not mass-ordered
		walk.BeginWindow(pq.Start, pq.End)
		walk.WalkPasses(pq.Tier, &bqs[i], pq.Bins, pq.Intens, pq.Start, pq.End)
		for ord := pq.Start; ord < pq.End; ord++ {
			got, want := sweep.SweepAccum(i, ord), walk.Accum(ord)
			for _, v := range [][2]float64{{got.Model, want.Model}, {got.Null, want.Null}} {
				if (v[0] == 0) != (v[1] == 0) || math.Abs(v[0]-v[1]) > 1e-9*(1+math.Abs(v[1])) {
					t.Fatalf("query %d ord %d: swept %+v, walked %+v", i, ord, got, want)
				}
			}
			if want.Model != 0 {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("no candidate matched any peak: the comparison is vacuous")
	}
}

// TestScratchBeginKeepsCursorsPerIndex: Begin keeps a rank's row cursors
// while it rescans one index and drops them when the block's index changes,
// so a rank sharing indexes with others retains cursors only for the block
// at hand.
func TestScratchBeginKeepsCursorsPerIndex(t *testing.T) {
	params := digest.DefaultParams()
	cfg := score.DefaultConfig()
	ix, a, qs := fragIdxFixture(t, 40, 1, params, cfg)
	b := New(ix, params.Mods, cfg)
	bq := score.Batch(qs[0])
	bins, _ := bq.Peaks()
	n := ix.Len()

	var s Scratch
	s.Begin(a)
	s.BeginWindow(0, n)
	s.WalkQuick(a.Tier(1, KindMatch), bins, 0, n)
	s.Begin(a)
	if len(s.cursors) != 1 {
		t.Fatalf("rescanning the same index kept %d cursors, want 1", len(s.cursors))
	}
	s.Begin(b)
	if len(s.cursors) != 0 || s.idx != b {
		t.Fatalf("a new index kept %d cursors", len(s.cursors))
	}
}
