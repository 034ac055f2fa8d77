package core

import (
	"bytes"
	"testing"

	"pepscale/internal/cluster"
)

// elasticCfg is the base machine config for elastic runs (Ranks is
// overridden by the membership universe).
func elasticCfg() cluster.Config {
	return cluster.Config{Cost: cluster.GigabitCluster()}
}

// migrationTotal sums the per-rank block-migration byte counters.
func migrationTotal(m Metrics) int64 {
	var n int64
	for _, rm := range m.PerRank {
		n += rm.MigrationBytes
	}
	return n
}

// TestElasticStaticMatchesAlgoA: with no membership schedule the elastic
// engine degenerates to a static run and must reproduce Algorithm A exactly.
func TestElasticStaticMatchesAlgoA(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	golden, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, rec, err := RunElastic(clusterCfg(4), in, opt, ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "elastic-static", golden.Queries, res.Queries)
	if res.Metrics.Candidates != golden.Metrics.Candidates {
		t.Errorf("candidates %d, want %d", res.Metrics.Candidates, golden.Metrics.Candidates)
	}
	if len(rec.Attempts) != 1 {
		t.Errorf("static run took %d attempts", len(rec.Attempts))
	}
	if mig := migrationTotal(res.Metrics); mig != 0 {
		t.Errorf("static run moved %d migration bytes", mig)
	}
}

// TestElasticTimelines: the acceptance criterion — over the same input and
// seed, ANY join/leave timeline (handwritten churn, the seeded spot and
// autoscale profiles, membership growing past the block count) produces
// final hits bit-identical to the static run at p = Initial.
func TestElasticTimelines(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	golden, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	horizon := golden.Metrics.RunSec

	cases := []struct {
		name string
		mp   *cluster.MembershipPlan
		// wantMigrate: "yes" = epoch-1 run must move blocks, "no" = it must
		// not, "any" = either is legal (profile leaves may land after the
		// last boundary).
		wantMigrate string
	}{
		{
			name: "handwritten-churn",
			mp: &cluster.MembershipPlan{Universe: 6, Initial: 4, Events: []cluster.MemberEvent{
				{TimeSec: horizon * 0.05, Join: []int{4}, Leave: []int{1}},
				{TimeSec: horizon * 0.3, Join: []int{5}},
				{TimeSec: horizon * 0.6, Join: []int{1}, Leave: []int{4}},
			}},
			wantMigrate: "yes",
		},
		{
			name:        "spot-profile",
			mp:          cluster.SpotMembershipPlan(4, 3, 5, horizon*0.9, 7),
			wantMigrate: "any",
		},
		{
			name:        "autoscale-profile",
			mp:          cluster.AutoscaleMembershipPlan(4, 3, horizon*0.4, 3),
			wantMigrate: "any",
		},
		{
			// Pure joins past the block count: minimal-move planning keeps
			// every survivor within target, so the joiners own nothing and
			// zero bytes move — the plan's no-churn guarantee.
			name: "overflow-membership",
			mp: &cluster.MembershipPlan{Universe: 8, Initial: 4, Events: []cluster.MemberEvent{
				{TimeSec: horizon * 0.1, Join: []int{4, 5, 6, 7}},
			}},
			wantMigrate: "no",
		},
		{
			name: "never-fires",
			mp: &cluster.MembershipPlan{Universe: 6, Initial: 4, Events: []cluster.MemberEvent{
				{TimeSec: horizon * 1e6, Join: []int{4}},
			}},
			wantMigrate: "no",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, epoch := range []int{1, 2} {
				res, rec, err := RunElastic(elasticCfg(), in, opt, ElasticOptions{
					Membership: tc.mp, EpochSteps: epoch,
				})
				if err != nil {
					t.Fatalf("epoch=%d: %v (attempts %+v)", epoch, err, rec.Attempts)
				}
				queriesEqual(t, tc.name, golden.Queries, res.Queries)
				if res.Metrics.Candidates != golden.Metrics.Candidates {
					t.Errorf("epoch=%d: candidates %d, want %d", epoch, res.Metrics.Candidates, golden.Metrics.Candidates)
				}
				mig := migrationTotal(res.Metrics)
				if tc.wantMigrate == "yes" && epoch == 1 && mig == 0 {
					t.Errorf("epoch=%d: timeline produced no migration bytes", epoch)
				}
				if tc.wantMigrate == "no" && mig != 0 {
					t.Errorf("epoch=%d: unexpected migration bytes %d", epoch, mig)
				}
				if vol := MeasuredCommVolume(res.Metrics); vol.MigrationBytes != mig {
					t.Errorf("epoch=%d: comm volume reports %d migration bytes, counters say %d", epoch, vol.MigrationBytes, mig)
				} else if vol.MigrationBytes > vol.RMABytes {
					t.Errorf("epoch=%d: migration bytes %d exceed total RMA bytes %d", epoch, vol.MigrationBytes, vol.RMABytes)
				}
			}
		})
	}
}

// TestElasticCrashRestart: a crash inside an elastic timeline aborts the
// attempt; the driver replays the schedule without the dead rank and still
// converges on the static hits, folding the failed attempt's virtual time
// into RunSec.
func TestElasticCrashRestart(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	golden, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	horizon := golden.Metrics.RunSec
	mp := &cluster.MembershipPlan{Universe: 6, Initial: 4, Events: []cluster.MemberEvent{
		{TimeSec: horizon * 0.05, Join: []int{4}},
		{TimeSec: horizon * 0.4, Join: []int{5}, Leave: []int{0}},
	}}
	cases := []struct {
		name  string
		fault *cluster.FaultPlan
	}{
		{"crash-initial-rank", &cluster.FaultPlan{CrashAtCall: map[int]int{2: 15}}},
		{"crash-joiner", &cluster.FaultPlan{CrashAtTime: map[int]float64{4: horizon * 0.2}}},
		{"crash-mid-run", &cluster.FaultPlan{CrashAtTime: map[int]float64{1: horizon * 0.5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, rec, err := RunElastic(elasticCfg(), in, opt, ElasticOptions{
				Membership: mp,
				Faults:     []*cluster.FaultPlan{tc.fault},
			})
			if err != nil {
				t.Fatalf("%v (attempts %+v)", err, rec.Attempts)
			}
			if len(rec.Attempts) != 2 {
				t.Fatalf("ran %d attempts, want 2 (%+v)", len(rec.Attempts), rec.Attempts)
			}
			queriesEqual(t, tc.name, golden.Queries, res.Queries)
			if res.Metrics.Candidates != golden.Metrics.Candidates {
				t.Errorf("candidates %d, want %d", res.Metrics.Candidates, golden.Metrics.Candidates)
			}
			if res.Metrics.RunSec <= rec.Attempts[1].RunSec {
				t.Errorf("RunSec %v does not include the failed attempt (final attempt %v)",
					res.Metrics.RunSec, rec.Attempts[1].RunSec)
			}
		})
	}
}

// TestElasticTraceOracle: the trace-as-oracle acceptance check. Two
// identical elastic runs over a churny timeline must export byte-identical
// Chrome traces; the folded per-rank deltas must reproduce the metrics
// exactly; and the one-sided bytes traced in the "migrate" phase must equal
// the engine's MigrationBytes counter.
func TestElasticTraceOracle(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	golden, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	horizon := golden.Metrics.RunSec
	mp := cluster.SpotMembershipPlan(4, 2, 4, horizon*0.9, 11)
	cfg := elasticCfg()
	cfg.Trace = true
	run := func() *Result {
		res, rec, err := RunElastic(cfg, in, opt, ElasticOptions{Membership: mp})
		if err != nil {
			t.Fatalf("%v (attempts %+v)", err, rec.Attempts)
		}
		return res
	}
	a, b := run(), run()
	queriesEqual(t, "trace-oracle", golden.Queries, a.Queries)
	ja, jb := exportTrace(t, a), exportTrace(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("double-run traces differ: %d vs %d bytes", len(ja), len(jb))
	}
	checkTraceMatchesMetrics(t, a)
	att := a.Trace.Attempts[len(a.Trace.Attempts)-1]
	if traced, counted := att.RMABytesInPhase("migrate"), migrationTotal(a.Metrics); traced != counted {
		t.Errorf("trace migrate-phase RMA bytes %d != engine MigrationBytes %d", traced, counted)
	}
	if migrationTotal(a.Metrics) == 0 {
		t.Error("spot timeline produced no migrations; oracle is vacuous")
	}
	// A crashing timeline must also be trace-deterministic across attempts.
	cfgF := cfg
	runF := func() *Result {
		res, rec, err := RunElastic(cfgF, in, opt, ElasticOptions{
			Membership: mp,
			Faults:     []*cluster.FaultPlan{{CrashAtTime: map[int]float64{1: horizon * 0.5}}},
		})
		if err != nil {
			t.Fatalf("%v (attempts %+v)", err, rec.Attempts)
		}
		return res
	}
	fa, fb := runF(), runF()
	queriesEqual(t, "trace-oracle-crash", golden.Queries, fa.Queries)
	if !bytes.Equal(exportTrace(t, fa), exportTrace(t, fb)) {
		t.Fatal("crashing double-run traces differ")
	}
}

// TestElasticRejoinSameRank: a graceful leaver parks and is re-admitted by
// a later event within the same attempt — the spot profile's rejoin path.
func TestElasticRejoinSameRank(t *testing.T) {
	in := testInput(t, 40, 8)
	opt := testOptions()
	golden, err := Run(AlgoA, clusterCfg(3), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	horizon := golden.Metrics.RunSec
	mp := &cluster.MembershipPlan{Universe: 4, Initial: 3, Events: []cluster.MemberEvent{
		{TimeSec: horizon * 0.1, Leave: []int{2}},
		{TimeSec: horizon * 0.4, Join: []int{2}},
	}}
	res, _, err := RunElastic(elasticCfg(), in, opt, ElasticOptions{Membership: mp})
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "rejoin", golden.Queries, res.Queries)
}

// TestElasticSingleRank: Universe = Initial = 1 degenerates to the serial
// scan.
func TestElasticSingleRank(t *testing.T) {
	in := testInput(t, 40, 6)
	opt := testOptions()
	ref, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunElastic(clusterCfg(1), in, opt, ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "single-rank", ref.Queries, res.Queries)
}

// TestElasticChaos drives repeated join->crash->rejoin cycles at three
// machine sizes: a churny membership timeline runs under a sequence of
// injected crashes, so the driver restarts mid-timeline attempts whose
// membership had already evolved, and the replayed schedule (minus the dead)
// must still converge on the static hits. Every timeline is run twice with
// tracing on and must export byte-identical traces. The largest case scales
// the membership universe to 1024 ranks (the partition stays at the initial
// member count: dormant spares park, join, and release at cluster scale).
func TestElasticChaos(t *testing.T) {
	cases := []struct {
		name     string
		p0       int
		universe int
		nDB, nQ  int
		big      bool
	}{
		{"p4", 4, 8, 60, 12, false},
		{"p64", 64, 80, 200, 16, false},
		{"p1024", 64, 1024, 200, 16, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.big && testing.Short() {
				t.Skip("1024-rank universe skipped in -short mode")
			}
			in := testInput(t, tc.nDB, tc.nQ)
			opt := testOptions()
			golden, err := Run(AlgoA, clusterCfg(tc.p0), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			horizon := golden.Metrics.RunSec
			s1, s2 := tc.p0, tc.universe-1 // spare ranks: one adjacent, one at the top
			mp := &cluster.MembershipPlan{Universe: tc.universe, Initial: tc.p0, Events: []cluster.MemberEvent{
				{TimeSec: horizon * 0.05, Join: []int{s1}, Leave: []int{1}},
				{TimeSec: horizon * 0.25, Join: []int{s2}},
				{TimeSec: horizon * 0.45, Join: []int{1}, Leave: []int{s1}},
				{TimeSec: horizon * 0.65, Join: []int{s1}, Leave: []int{s2}},
			}}
			cfg := cluster.Config{Cost: cluster.GigabitCluster(), Trace: true}
			faults := []*cluster.FaultPlan{
				{CrashAtTime: map[int]float64{2: horizon * 0.3}},
				{CrashAtTime: map[int]float64{3: horizon * 0.6}},
			}
			run := func() (*Result, *Recovery) {
				res, rec, err := RunElastic(cfg, in, opt, ElasticOptions{
					Membership: mp,
					Faults:     faults,
				})
				if err != nil {
					t.Fatalf("%v (attempts %+v)", err, rec.Attempts)
				}
				return res, rec
			}
			a, rec := run()
			if len(rec.Attempts) != 3 {
				t.Fatalf("ran %d attempts, want 3 (%+v)", len(rec.Attempts), rec.Attempts)
			}
			queriesEqual(t, tc.name, golden.Queries, a.Queries)
			if a.Metrics.Candidates != golden.Metrics.Candidates {
				t.Errorf("candidates %d, want %d", a.Metrics.Candidates, golden.Metrics.Candidates)
			}
			b, _ := run()
			if !bytes.Equal(exportTrace(t, a), exportTrace(t, b)) {
				t.Fatal("double-run traces differ")
			}
			checkTraceMatchesMetrics(t, a)
			att := a.Trace.Attempts[len(a.Trace.Attempts)-1]
			if traced, counted := att.RMABytesInPhase("migrate"), migrationTotal(a.Metrics); traced != counted {
				t.Errorf("trace migrate-phase RMA bytes %d != engine MigrationBytes %d", traced, counted)
			}
		})
	}
}
