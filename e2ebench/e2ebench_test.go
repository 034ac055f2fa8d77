package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pepscale/internal/core"
)

// tinyWorkloads are the three workloads at sizes that run in about a
// second each.
func tinyWorkloads() []workload {
	return []workload{
		searchWorkload{name: "search-a-fragidx", algo: core.AlgoA, ranks: 4, scan: core.ScanModeFragIdx, seqs: 60, queries: 20, sets: 1},
		searchWorkload{name: "search-b-fewq", algo: core.AlgoB, ranks: 8, scan: core.ScanModePeptideMajor, seqs: 300, queries: 8, sets: 2},
		pepdWorkload{name: "pepd-churn", seqs: 60, pool: 20, members: 4, spares: 2, churn: 4, horizon: 10, limit: 2.0, refRate: 10},
	}
}

// runTiny runs w once and returns its result.
func runTiny(t *testing.T, w workload, dir string, seed int64, traced bool) *result {
	t.Helper()
	b := &bench{dir: dir, seed: seed, traced: traced, log: io.Discard, host: hostContext("..")}
	if traced {
		// Long enough for the CPU profile to take samples.
		b.budget = 2 * time.Second
	}
	b.spans.on = traced
	res, err := b.runWorkload(w)
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", w.workloadName(), seed, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d traced %v: correct %v, %d of %d failed", w.workloadName(), seed, traced, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// deterministic reports whether a metric comes from the program's own
// outputs (virtual time, counts, bytes) and so must repeat exactly for a
// seed.
func deterministic(name, unit string) bool {
	switch {
	case unit == "vs" || unit == "q/vs" || unit == "B":
		return true
	case name == "ok_frac", name == "cluster.max_resident_mb", name == "core.hit_ratio":
		return true
	case unit == "count":
		return !strings.HasPrefix(name, "trace.") && !strings.HasPrefix(name, "runtime.") && !strings.HasSuffix(name, ".builds_est")
	}
	return false
}

func TestTinyWorkloads(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.workloadName(), func(t *testing.T) {
			dir := t.TempDir()
			for _, traced := range []bool{false, true} {
				a := runTiny(t, w, dir, 1, traced)
				b := runTiny(t, w, dir, 1, traced)
				for name, m := range a.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if deterministic(name, m.Unit) && b.Metrics[name] != m {
						t.Errorf("%s did not repeat for the same seed: %v then %v", name, m.Value, b.Metrics[name].Value)
					}
				}
			}
			// A different seed gives different inputs and so different
			// program outputs.
			one := runTiny(t, w, dir, 1, true)
			two := runTiny(t, w, dir, 2, true)
			if one.Metrics["core.candidates"] == two.Metrics["core.candidates"] {
				t.Errorf("seeds 1 and 2 gave the same candidate count %v", one.Metrics["core.candidates"].Value)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	dir := t.TempDir()
	read := func(seed int64) []byte {
		in := &inputs{dbPath: filepath.Join(dir, "db.fasta"), mgfPath: filepath.Join(dir, "q.mgf")}
		if err := generateInputs(dir, in, seed, 20, 5); err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(in.dbPath)
		if err != nil {
			t.Fatal(err)
		}
		mgf, err := os.ReadFile(in.mgfPath)
		if err != nil {
			t.Fatal(err)
		}
		return append(db, mgf...)
	}
	if a, b := read(1), read(1); !bytes.Equal(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if a, b := read(1), read(2); bytes.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same inputs")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"pepscale/internal/digest.NewIndexIDs":           "digest",
		"pepscale/internal/fragidx.(*Index).Tier":        "fragidx",
		"pepscale/internal/core.(*scanState).scan.func1": "core",
		"pepscale/internal/chem.NeutralFromMZ":           "",
		"pepscale/internal/trace.(*RankLog).Append":      "",
		"pepscale/internal/synth.GenerateDB":             benchLayer,
		"pepscale.LoadDatabaseFile":                      "",
		"main.countMismatches":                           benchLayer,
		"runtime.mallocgc":                               "",
		"sort.Slice":                                     "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldSumsToTotal checks the fold on a hand-built profile: each
// sample goes to its innermost layer frame, helper frames are skipped, and
// samples with no layer frame go to runtime.
func TestFoldSumsToTotal(t *testing.T) {
	p := &cpuProfile{samples: []cpuSample{
		{ns: 10, stack: []string{"runtime.mallocgc", "pepscale/internal/digest.Digest", "pepscale/internal/core.Run"}},
		{ns: 20, stack: []string{"pepscale/internal/chem.Mass", "pepscale/internal/score.(*likelihood).Score", "pepscale/internal/core.Run"}},
		{ns: 30, stack: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		{ns: 40, stack: []string{"bytes.Equal", "main.sameHits", "main.main"}},
	}, totalNS: 100}
	got := p.fold()
	want := map[string]int64{"digest": 10, "score": 20, runtimeLayer: 30, benchLayer: 40}
	var sum int64
	for l, ns := range got {
		sum += ns
		if ns != want[l] {
			t.Errorf("%s: %d ns, want %d", l, ns, want[l])
		}
	}
	if sum != p.totalNS {
		t.Errorf("fold sums to %d, total %d", sum, p.totalNS)
	}
	if ns := p.inclusiveNS("pepscale/internal/core.Run"); ns != 30 {
		t.Errorf("inclusive core.Run = %d, want 30", ns)
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json at the checkout root
// names exactly the workloads and metrics this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	e2e := map[string]string{}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want map[string]string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		for n, u := range want {
			if got[n] != u {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q", kind, n, got[n], u)
			}
		}
		var extra []string
		for n := range got {
			if _, ok := want[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics in BENCHMARK.json the program does not report: %v", kind, extra)
		}
	}
	check("end-to-end", spec.EndToEnd, e2e)
	check("per-layer", spec.PerLayer, perLayerUnits())
}
