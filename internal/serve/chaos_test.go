package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/trace"
)

// TestChaosCrashMidStream: a rank crash mid-stream must lose no in-flight
// query and answer none twice — dead owners' batches re-stage from their
// checkpoints on survivors, and every hit stays bit-identical to the
// offline batch run.
func TestChaosCrashMidStream(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	want := offlineHits(t, db, pool, testOpt())
	arrivals := Schedule(steadySpec(), pool)
	cfg := steadyCfg(db)
	// One-block quanta: every batch checkpoints at each block step, so the
	// crash lands between quanta of partially-swept batches and the
	// restore path replays real cursors.
	cfg.StepsPerQuantum = 1
	// Rank 0 (the first-choice owner) dies on its 6th fault-checked call:
	// after its boot Expose, during an in-flight batch's remote fetches.
	cfg.Faults = []*cluster.FaultPlan{{CrashAtCall: map[int]int{0: 6}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejs, err := s.Play(arrivals)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Metrics()
	if st.Crashes == 0 {
		t.Fatal("fault plan never fired; the test exercised nothing")
	}
	if st.Recoveries == 0 {
		t.Error("crash fired but no recovery recorded")
	}
	checkService(t, "crash", s, rejs, want)
}

// chaosMembership is the mid-stream rotation schedule: a join+leave swap, a
// pure join, and a late leave, all inside the serving horizon.
func chaosMembership() *cluster.MembershipPlan {
	return &cluster.MembershipPlan{Universe: 6, Initial: 4, Events: []cluster.MemberEvent{
		{TimeSec: 0.2, Join: []int{4}, Leave: []int{0}},
		{TimeSec: 0.5, Join: []int{5}},
		{TimeSec: 0.8, Leave: []int{1}},
	}}
}

// TestChaosRotationMidStream: live block rotations under load — leavers'
// in-flight batches carry over to remaining members with no query lost,
// answered twice, or changed.
func TestChaosRotationMidStream(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	want := offlineHits(t, db, pool, testOpt())
	arrivals := Schedule(steadySpec(), pool)
	cfg := steadyCfg(db)
	cfg.Membership = chaosMembership()
	cfg.StepsPerQuantum = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejs, err := s.Play(arrivals)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Metrics()
	if st.Rotations != 3 {
		t.Errorf("got %d rotations, want 3", st.Rotations)
	}
	if st.Migrations == 0 || s.MigrationBytes() == 0 {
		t.Errorf("rotations moved no blocks (%d migrations, %d bytes)",
			st.Migrations, s.MigrationBytes())
	}
	checkService(t, "rotation", s, rejs, want)
}

// TestChaosCombinedDeterministic is the acceptance criterion: crash/rejoin
// AND block rotation mid-stream, with hits still bit-identical to the
// offline batch and the whole run replayable to byte-identical traces.
func TestChaosCombinedDeterministic(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	want := offlineHits(t, db, pool, testOpt())
	arrivals := Schedule(steadySpec(), pool)
	run := func() ([]byte, []Completion, ServiceStats) {
		cfg := steadyCfg(db)
		cfg.Membership = chaosMembership()
		cfg.StepsPerQuantum = 1
		cfg.Trace = true
		// Rank 1 becomes the first-choice owner once rank 0 leaves at 0.2s;
		// its 6th fault-checked call lands mid-stream after that rotation.
		cfg.Faults = []*cluster.FaultPlan{{CrashAtCall: map[int]int{1: 6}}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rejs, err := s.Play(arrivals)
		if err != nil {
			t.Fatalf("Play: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		checkService(t, "chaos", s, rejs, want)
		tr := s.Trace()
		if tr == nil {
			t.Fatal("traced run returned no trace")
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return buf.Bytes(), s.Completions(), s.Metrics()
	}
	b1, c1, st := run()
	b2, c2, _ := run()
	if st.Crashes == 0 {
		t.Error("fault plan never fired under the combined schedule")
	}
	if st.Rotations == 0 {
		t.Error("no rotation fired under the combined schedule")
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("double-run chaos traces differ (%d vs %d bytes)", len(b1), len(b2))
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Error("double-run chaos completions differ")
	}
}

// update regenerates the committed golden trace:
//
//	go test ./internal/serve/ -run TestGoldenTraceChaos -update
var update = flag.Bool("update", false, "rewrite golden trace files")

// TestGoldenTraceChaos pins pepd's virtual clock byte for byte: a short
// traced run with one block rotation and one rank crash mid-stream, so the
// committed export covers boot, quantum scans, batch checkpoints, the live
// migration, the replacement machine's re-boot, and batch restores.
// Regenerate with -update after an intentional change.
func TestGoldenTraceChaos(t *testing.T) {
	db, pool := testWorkload(t, 40, 8)
	arrivals := Schedule(LoadSpec{Seed: 7, HorizonSec: 0.5, Loads: []TenantLoad{
		{Tenant: TenantConfig{Name: "acme"}, Profile: ProfileSteady, RatePerSec: 30},
	}}, pool)
	cfg := steadyCfg(db)
	cfg.Trace = true
	cfg.StepsPerQuantum = 1
	cfg.Membership = &cluster.MembershipPlan{Universe: 5, Initial: 4, Events: []cluster.MemberEvent{
		{TimeSec: 0.15, Join: []int{4}, Leave: []int{0}},
	}}
	cfg.Faults = []*cluster.FaultPlan{{CrashAtCall: map[int]int{1: 6}}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejs, err := s.Play(arrivals)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkService(t, "golden", s, rejs, offlineHits(t, db, pool, testOpt()))
	st := s.Metrics()
	if st.Crashes != 1 || st.Rotations != 1 {
		t.Fatalf("got %d crashes and %d rotations, want 1 and 1", st.Crashes, st.Rotations)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, s.Trace()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "pepd_chaos.trace.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/serve/ -run TestGoldenTraceChaos -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (%d vs %d bytes); if the change is intentional, regenerate with -update",
			golden, len(got), len(want))
	}
}
