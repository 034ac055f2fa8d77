package core

import (
	"strings"
	"testing"

	"pepscale/internal/cluster"
)

// TestResilientMatchesReference: failure-free over a static membership, the
// checkpointed engine must reproduce the serial reference and Algorithm A
// exactly at every epoch width, including the checkpoint-free EpochSteps ≥ p0
// (the sweep then never reaches a boundary and writes nothing).
func TestResilientMatchesReference(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	ref, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}
	algoA, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []int{1, 2, 3, 4, 9} {
		res, rec, err := RunElastic(clusterCfg(4), in, opt, ElasticOptions{EpochSteps: epoch})
		if err != nil {
			t.Fatalf("epoch=%d: %v", epoch, err)
		}
		queriesEqual(t, "checkpointed-vs-serial", ref.Queries, res.Queries)
		queriesEqual(t, "checkpointed-vs-algoA", algoA.Queries, res.Queries)
		if res.Metrics.Candidates != algoA.Metrics.Candidates {
			t.Errorf("epoch=%d: candidates %d, want %d", epoch, res.Metrics.Candidates, algoA.Metrics.Candidates)
		}
		if len(rec.Attempts) != 1 {
			t.Errorf("epoch=%d: %d attempts on a failure-free run", epoch, len(rec.Attempts))
		}
		if epoch < 4 && rec.CheckpointWrites == 0 {
			t.Errorf("epoch=%d: no checkpoint writes", epoch)
		}
		if epoch >= 4 && rec.CheckpointWrites != 0 {
			t.Errorf("epoch=%d: %d unexpected checkpoint writes", epoch, rec.CheckpointWrites)
		}
	}
}

// TestResilientChaos is the acceptance experiment for the checkpointed
// engine over a static membership: under every injected fault schedule —
// crash at a primitive call mid-sweep, crash at a virtual time, dropped
// one-sided transfers (both survivable-with-retries and retry-exhausting), a
// straggler rank — the final hits must be bit-identical to the failure-free
// run.
func TestResilientChaos(t *testing.T) {
	in := testInput(t, 80, 12)
	opt := testOptions()
	golden, grec, err := RunElastic(clusterCfg(6), in, opt, ElasticOptions{EpochSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(grec.Attempts) != 1 {
		t.Fatalf("golden run had %d attempts", len(grec.Attempts))
	}
	midRun := golden.Metrics.RunSec * 0.5

	cases := []struct {
		name     string
		fault    *cluster.FaultPlan
		attempts int
	}{
		{
			name:     "crash-at-call",
			fault:    &cluster.FaultPlan{CrashAtCall: map[int]int{1: 9}},
			attempts: 2,
		},
		{
			name:     "crash-at-time",
			fault:    &cluster.FaultPlan{CrashAtTime: map[int]float64{2: midRun}},
			attempts: 2,
		},
		{
			name:     "dropped-gets-retried",
			fault:    &cluster.FaultPlan{Seed: 5, DropProb: 0.3, MaxRetries: 256},
			attempts: 1,
		},
		{
			name: "dropped-gets-exhausted",
			fault: &cluster.FaultPlan{
				Seed:       5,
				Links:      map[cluster.Link]cluster.LinkFault{{From: 1, To: 0}: {DropProb: 1}},
				MaxRetries: 2,
			},
			attempts: 2,
		},
		{
			name:     "straggler",
			fault:    &cluster.FaultPlan{Straggler: map[int]float64{3: 4}},
			attempts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, rec, err := RunElastic(clusterCfg(6), in, opt, ElasticOptions{
				EpochSteps: 2,
				Faults:     []*cluster.FaultPlan{tc.fault},
			})
			if err != nil {
				t.Fatalf("%v (attempts: %+v)", err, rec.Attempts)
			}
			if len(rec.Attempts) != tc.attempts {
				t.Fatalf("ran %d attempts, want %d (%+v)", len(rec.Attempts), tc.attempts, rec.Attempts)
			}
			queriesEqual(t, tc.name, golden.Queries, res.Queries)
			if res.Metrics.Candidates != golden.Metrics.Candidates {
				t.Errorf("candidates %d, want %d", res.Metrics.Candidates, golden.Metrics.Candidates)
			}
			if tc.attempts > 1 {
				if res.Metrics.RunSec <= golden.Metrics.RunSec {
					t.Errorf("recovered RunSec %v should exceed failure-free %v (it includes the failed attempt)",
						res.Metrics.RunSec, golden.Metrics.RunSec)
				}
				if rec.Attempts[1].Ranks != rec.Attempts[0].Ranks-len(rec.Attempts[0].FailedRanks) {
					t.Errorf("survivor count mismatch: %+v", rec.Attempts)
				}
			}
		})
	}

	// The retried-drops schedule must actually have exercised the retry loop.
	res, _, err := RunElastic(clusterCfg(6), in, opt, ElasticOptions{
		EpochSteps: 6,
		Faults:     []*cluster.FaultPlan{{Seed: 5, DropProb: 0.3, MaxRetries: 256}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var retries int64
	for _, rm := range res.Metrics.PerRank {
		retries += rm.RMARetries
		if rm.RMAFailures != 0 {
			t.Errorf("unexpected RMAFailures: %+v", rm)
		}
	}
	if retries == 0 {
		t.Error("DropProb=0.3 schedule recorded no retries")
	}
}

// TestResilientRepeatedFailures: the driver keeps shrinking the machine
// across several faulty attempts, still converging on identical hits.
func TestResilientRepeatedFailures(t *testing.T) {
	in := testInput(t, 60, 8)
	opt := testOptions()
	golden, _, err := RunElastic(clusterCfg(5), in, opt, ElasticOptions{EpochSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, rec, err := RunElastic(clusterCfg(5), in, opt, ElasticOptions{
		EpochSteps: 1,
		Faults: []*cluster.FaultPlan{
			{CrashAtCall: map[int]int{4: 6}},
			{CrashAtTime: map[int]float64{0: golden.Metrics.RunSec * 0.3}},
		},
	})
	if err != nil {
		t.Fatalf("%v (attempts: %+v)", err, rec.Attempts)
	}
	if len(rec.Attempts) != 3 {
		t.Fatalf("ran %d attempts, want 3 (%+v)", len(rec.Attempts), rec.Attempts)
	}
	if final := rec.Attempts[2].Ranks; final >= 5 {
		t.Fatalf("final attempt still on %d ranks", final)
	}
	queriesEqual(t, "repeated-failures", golden.Queries, res.Queries)
	if res.Metrics.Candidates != golden.Metrics.Candidates {
		t.Errorf("candidates %d, want %d", res.Metrics.Candidates, golden.Metrics.Candidates)
	}
}

// TestResilientSpaceBound: after losing a rank, the survivors' memory
// high-water mark stays O(N/p'): bounded by a small multiple of the
// failure-free per-rank footprint and well under the replicated-database
// baseline.
func TestResilientSpaceBound(t *testing.T) {
	in := testInput(t, 200, 6)
	opt := testOptions()
	clean, _, err := RunElastic(clusterCfg(8), in, opt, ElasticOptions{EpochSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	crashed, rec, err := RunElastic(clusterCfg(8), in, opt, ElasticOptions{
		EpochSteps: 2,
		Faults:     []*cluster.FaultPlan{{CrashAtCall: map[int]int{3: 9}}},
	})
	if err != nil {
		t.Fatalf("%v (attempts: %+v)", err, rec.Attempts)
	}
	if len(rec.Attempts) != 2 {
		t.Fatalf("ran %d attempts, want 2 (%+v)", len(rec.Attempts), rec.Attempts)
	}
	mw, err := Run(AlgoMasterWorker, clusterCfg(8), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes := clean.Metrics.MaxResidentBytes()
	crashRes := crashed.Metrics.MaxResidentBytes()
	// p' = 7 survivors own at most ceil(8/7) = 2 of the 8 stable blocks plus
	// one transported block, vs 1+1 failure-free: at most ~1.5x, with slack.
	if float64(crashRes) > float64(cleanRes)*2.0 {
		t.Errorf("survivor resident %d vs failure-free %d: not O(N/p')", crashRes, cleanRes)
	}
	if crashRes*2 > mw.Metrics.MaxResidentBytes() {
		t.Errorf("survivor resident %d should stay far below replicated baseline %d",
			crashRes, mw.Metrics.MaxResidentBytes())
	}
}

// TestRecoveryAlgoB: the from-scratch recovery driver restores Algorithm B
// — including a crash landing in its counting-sort phase — to bit-identical
// hits on the surviving ranks.
func TestRecoveryAlgoB(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	golden, err := Run(AlgoB, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fault *cluster.FaultPlan
	}{
		{"crash-early", &cluster.FaultPlan{CrashAtCall: map[int]int{2: 1}}},
		{"crash-mid-sort", &cluster.FaultPlan{CrashAtTime: map[int]float64{1: golden.Metrics.RunSec * 0.5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, rec, err := RunWithRecovery(AlgoB, clusterCfg(4), in, opt, []*cluster.FaultPlan{tc.fault}, 0)
			if err != nil {
				t.Fatalf("%v (attempts: %+v)", err, rec.Attempts)
			}
			if len(rec.Attempts) != 2 || rec.Attempts[1].Ranks != 3 {
				t.Fatalf("attempts: %+v", rec.Attempts)
			}
			queriesEqual(t, tc.name, golden.Queries, res.Queries)
		})
	}
}

// TestResilientSingleRank: p = 1 under the checkpointed engine degenerates
// to a serial scan with no transport and no epoch boundary at any epoch
// width, and still matches the reference.
func TestResilientSingleRank(t *testing.T) {
	in := testInput(t, 40, 6)
	opt := testOptions()
	ref, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []int{1, 2} {
		res, rec, err := RunElastic(clusterCfg(1), in, opt, ElasticOptions{EpochSteps: epoch})
		if err != nil {
			t.Fatal(err)
		}
		queriesEqual(t, "single-rank", ref.Queries, res.Queries)
		if rec.CheckpointWrites != 0 {
			t.Errorf("epoch=%d: a one-block sweep wrote %d checkpoints", epoch, rec.CheckpointWrites)
		}
		if vol := MeasuredCommVolume(res.Metrics); vol.RMABytes != 0 {
			t.Errorf("epoch=%d: single rank moved %d one-sided bytes", epoch, vol.RMABytes)
		}
	}
}

// TestResilientGivesUp: a too-small attempt budget surfaces the failure
// instead of looping, and both drivers reject an empty machine up front —
// after validating the options — rather than reporting "all 0 ranks failed".
func TestResilientGivesUp(t *testing.T) {
	in := testInput(t, 40, 4)
	badOpt := testOptions()
	badOpt.Tau = -1
	for _, tc := range []struct {
		name string
		run  func() (*Recovery, error)
		want string
		// attempts is the expected Recovery length (-1: no Recovery).
		attempts int
	}{
		{"elastic-max-attempts-1", func() (*Recovery, error) {
			_, rec, err := RunElastic(clusterCfg(3), in, testOptions(), ElasticOptions{
				MaxAttempts: 1,
				Faults:      []*cluster.FaultPlan{{CrashAtCall: map[int]int{1: 3}}},
			})
			return rec, err
		}, "giving up", 1},
		{"elastic-0-ranks", func() (*Recovery, error) {
			_, rec, err := RunElastic(clusterCfg(0), in, testOptions(), ElasticOptions{})
			return rec, err
		}, "core: need at least 1 rank, got 0", -1},
		{"algob-0-ranks", func() (*Recovery, error) {
			_, rec, err := RunWithRecovery(AlgoB, clusterCfg(0), in, testOptions(), nil, 0)
			return rec, err
		}, "core: need at least 1 rank, got 0", -1},
		{"algob-negative-ranks", func() (*Recovery, error) {
			_, rec, err := RunWithRecovery(AlgoB, clusterCfg(-1), in, testOptions(), nil, 0)
			return rec, err
		}, "core: need at least 1 rank, got -1", -1},
		{"algob-bad-options-first", func() (*Recovery, error) {
			_, rec, err := RunWithRecovery(AlgoB, clusterCfg(0), in, badOpt, nil, 0)
			return rec, err
		}, "core: negative tau -1", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := tc.run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			switch {
			case tc.attempts < 0 && rec != nil:
				t.Errorf("rejected run returned a recovery record: %+v", rec)
			case tc.attempts >= 0 && (rec == nil || len(rec.Attempts) != tc.attempts):
				t.Errorf("recovery %+v, want %d attempts", rec, tc.attempts)
			}
		})
	}
}
