package core

import (
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/fragidx"
)

// cachedFragIndexes returns every fragment index held by c: the block
// indexes processBlock and the master-worker engine share, and those of the
// candidate engine's bands. Call it only once the cache's run is over.
func cachedFragIndexes(c *indexCache) []*fragidx.Index {
	var out []*fragidx.Index
	add := func(e *cacheEntry) {
		switch v := e.v.(type) {
		case *fragidx.Index:
			out = append(out, v)
		case *candIndex:
			if v.fx != nil {
				out = append(out, v.fx)
			}
		}
	}
	for _, kind := range []cacheKind{kindFragIdx, kindCandIndex} {
		for _, s := range c.dense[kind] {
			if s.e != nil {
				add(s.e)
			}
		}
		for k, e := range c.m {
			if k.kind == kind {
				add(e)
			}
		}
	}
	return out
}

// fragBuildCheck snapshots the process-wide fragment-index build counters
// before a run; check then requires that every index built during the run
// is one of the cache's (so each block key got exactly one, shared by all
// ranks) and that every tier built is one of theirs (each walked tier was
// built exactly once).
type fragBuildCheck struct{ indexes, tiers int64 }

func startFragBuildCheck() fragBuildCheck {
	i, t := fragidx.Builds()
	return fragBuildCheck{i, t}
}

func (b fragBuildCheck) check(t *testing.T, label string, c *indexCache, wantBlocks int) {
	t.Helper()
	idx, tiers := fragidx.Builds()
	cached := cachedFragIndexes(c)
	walked := 0
	for _, x := range cached {
		if x.BuiltTiers() == 0 {
			t.Errorf("%s: a cached fragment index was never walked", label)
		}
		walked += x.BuiltTiers()
	}
	if wantBlocks > 0 && len(cached) != wantBlocks {
		t.Errorf("%s: %d cached fragment indexes, want one per block (%d)", label, len(cached), wantBlocks)
	}
	if len(cached) == 0 {
		t.Errorf("%s: no fragment index in the run's cache", label)
	}
	if got := idx - b.indexes; got != int64(len(cached)) {
		t.Errorf("%s: built %d fragment indexes for %d cached blocks", label, got, len(cached))
	}
	if got := tiers - b.tiers; got != int64(walked) {
		t.Errorf("%s: built %d tiers for %d walked", label, got, walked)
	}
}

// TestFragIdxBuiltOncePerBlock is the exact build-count gate: every engine
// in fragment-index mode, and a pepd backend across several batches, builds
// exactly one fragment index per block key of the cache it owns, and each
// tier its ranks walk exactly once — not once per rank per visit.
func TestFragIdxBuiltOncePerBlock(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	opt.ScanMode = ScanModeFragIdx
	const p = 4

	for _, tc := range []struct {
		algo   Algorithm
		blocks int // 0: the engine's block count depends on the data
	}{
		{AlgoA, p}, {AlgoANoMask, p}, {AlgoSubGroup, p / 2}, {AlgoB, 0},
		{AlgoMasterWorker, 1}, {AlgoCandidate, 0},
	} {
		o := opt
		o.Groups = 2
		sh := newShared(p)
		body, err := engineBody(tc.algo, clusterCfg(p), in, o, sh)
		if err != nil {
			t.Fatal(err)
		}
		mach, err := cluster.New(clusterCfg(p))
		if err != nil {
			t.Fatal(err)
		}
		b := startFragBuildCheck()
		if err := mach.Run(body); err != nil {
			t.Fatalf("%v: %v", tc.algo, err)
		}
		b.check(t, tc.algo.String(), sh.cache, tc.blocks)
	}

	golden, err := Run(AlgoA, clusterCfg(p), in, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := golden.Metrics.RunSec
	for _, tc := range []struct {
		name string
		mp   *cluster.MembershipPlan
	}{
		{"elastic-static", nil},
		{"elastic-churn", &cluster.MembershipPlan{Universe: 5, Initial: p, Events: []cluster.MemberEvent{
			{TimeSec: 0.1 * h, Leave: []int{2}},
			{TimeSec: 0.3 * h, Join: []int{4}},
			{TimeSec: 0.5 * h, Join: []int{2}},
		}}},
	} {
		cache := newIndexCache()
		b := startFragBuildCheck()
		res, _, err := runElastic(clusterCfg(p), in, opt, ElasticOptions{Membership: tc.mp}, cache)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		queriesEqual(t, tc.name, golden.Queries, res.Queries)
		b.check(t, tc.name, cache, p)
	}

	bk, err := NewBackend(in.DBData, opt, p)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := cluster.New(clusterCfg(p))
	if err != nil {
		t.Fatal(err)
	}
	b := startFragBuildCheck()
	if _, err := bk.Boot(mach, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	const batches = 3
	for i := 0; i < batches; i++ {
		lo, hi := share(len(in.Queries), batches, i)
		bs := NewBatch(int32(i), in.Queries[lo:hi])
		bs.SetOwner(i % p)
		rep, err := bk.ScanBatch(mach, bs, 0, 0)
		if err != nil || !rep.OK() {
			t.Fatalf("batch %d: %v %v", i, err, rep.Err)
		}
	}
	b.check(t, "pepd backend", bk.pt.cache, p)
}

// TestSharedFragIdxAlgoAAndElasticP8 races eight rank goroutines over the
// shared fragment indexes (run it under -race: make race, make
// chaos-elastic): Algorithm A and the elastic engine in fragment-index mode
// must reproduce Serial's hits exactly.
func TestSharedFragIdxAlgoAAndElasticP8(t *testing.T) {
	in := testInput(t, 80, 24)
	opt := testOptions()
	opt.ScanMode = ScanModeFragIdx
	const p = 8
	serial, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(AlgoA, clusterCfg(p), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "algo-a p=8", serial.Queries, res.Queries)
	el, _, err := RunElastic(clusterCfg(p), in, opt, ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "elastic p=8", serial.Queries, el.Queries)
}
