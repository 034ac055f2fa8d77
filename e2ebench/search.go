package main

import (
	"fmt"
	"time"

	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/spectrum"
)

// searchWorkload is a batch search: one client runs core.Run over a set
// of queries, waits for the answer, and runs the next (closed loop). A run
// rotates through sets query sets of the query file; the virtual metrics
// are medians over the sets, which steadies them across seeds when a set
// holds few queries.
type searchWorkload struct {
	name    string
	algo    core.Algorithm
	ranks   int
	scan    string
	seqs    int
	queries int
	sets    int
}

func (w searchWorkload) workloadName() string { return w.name }

// setupsPerSearch is how many set-ups are timed before each untraced
// search.
const setupsPerSearch = 3

// minSearches is the fewest searches a measuring phase runs, even when
// they overrun its time.
const minSearches = 3

// searchRun is one measured search.
type searchRun struct {
	hostSec, peakMB float64
	res             *core.Result
}

func (w searchWorkload) run(b *bench) (*outcome, error) {
	opt := core.DefaultOptions()
	opt.ScanMode = w.scan
	in, err := b.prepare(w.name, w.seqs, w.queries*w.sets, opt)
	if err != nil {
		return nil, err
	}
	var data []byte
	var qs []*spectrum.Spectrum
	var setups setupTimes
	load := func() (err error) {
		data, qs, err = in.load()
		return err
	}
	if err := setups.measure(b, setupsPerSearch, load); err != nil {
		return nil, err
	}

	out := &outcome{values: map[string]float64{}}
	// first holds each set's first result, against which later searches of
	// the set must repeat exactly.
	first := make([]*core.Result, w.sets)
	// search runs set i and checks it. An engine error counts every query
	// of the set as failed; the run goes on.
	search := func(i int, traced bool) (searchRun, bool) {
		qs, ref := qs[i*w.queries:(i+1)*w.queries], in.ref[i*w.queries:(i+1)*w.queries]
		cfg := cluster.Config{Ranks: w.ranks, Cost: cluster.GigabitCluster(), Trace: traced}
		if !traced {
			if err := setups.measure(b, setupsPerSearch, load); err != nil {
				fmt.Fprintf(b.log, "%v\n", err)
				return searchRun{}, false
			}
		}
		settle()
		id := b.spans.begin("core.Run")
		t0 := time.Now()
		res, err := core.Run(w.algo, cfg, core.Input{DBData: data, Queries: qs}, opt)
		host := sinceSec(t0)
		b.spans.end(id)
		run := searchRun{hostSec: host, peakMB: peakRSSMB(), res: res}
		out.attempted += int64(len(qs))
		if err != nil {
			fmt.Fprintf(b.log, "search failed: %v\n", err)
			out.failed += int64(len(qs))
			return run, false
		}
		out.failed += countMismatches(res.Queries, ref)
		if first[i] == nil {
			first[i] = res
		} else if m, f := res.Metrics, first[i].Metrics; m.RunSec != f.RunSec || m.Candidates != f.Candidates || m.Hits != f.Hits {
			out.problems = append(out.problems, fmt.Sprintf("set %d: virtual metrics did not repeat: run %v vs %v, candidates %d vs %d",
				i, m.RunSec, f.RunSec, m.Candidates, f.Candidates))
		}
		return run, true
	}
	// phase searches the sets in turn, from set 0, until the budget is
	// spent and at least min searches succeeded, and returns the
	// successful ones.
	phase := func(budget time.Duration, min int, traced bool) ([]searchRun, error) {
		var runs []searchRun
		start := time.Now()
		for tries := 0; len(runs) < min || time.Since(start) < budget; tries++ {
			if tries >= 2*min && len(runs) < min {
				return nil, fmt.Errorf("only %d of %d searches succeeded", len(runs), tries)
			}
			if r, ok := search(tries%w.sets, traced); ok {
				runs = append(runs, r)
			}
		}
		return runs, nil
	}

	if !b.traced {
		runs, err := phase(b.budget, max(minSearches, w.sets), false)
		if err != nil {
			return nil, err
		}
		var host, peak, virt []float64
		for _, r := range runs {
			host = append(host, r.hostSec)
			peak = append(peak, r.peakMB)
		}
		for _, f := range first {
			if f == nil {
				return nil, fmt.Errorf("a query set never searched successfully")
			}
			virt = append(virt, f.Metrics.RunSec)
		}
		runSec := median(virt)
		fmt.Fprintf(b.log, "%d searches of %d queries, %.3f s host and %.0f MB peak each; %.4f vs virtual per set\n",
			len(runs), w.queries, host, peak, virt)
		fmt.Fprintf(b.log, "set-up median of %d: %.4f s\n", len(setups), median(setups))
		fmt.Fprintln(b.log, "closed loop: one client, one search at a time; load-generator lateness is zero by construction")
		v := out.values
		v["setup_s"] = median(setups)
		v["host_qps"] = float64(w.queries) / median(host)
		v["peak_rss_mb"] = median(peak)
		// Every query of a batch search is submitted at virtual time 0
		// and answered when the run ends.
		v["virtual_run_s"] = runSec
		v["sojourn_p50_vs"] = runSec
		v["sojourn_p99_vs"] = runSec
		v["goodput_qps_v"] = float64(w.queries) / runSec
		v["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		return out, nil
	}

	// Traced run: an untraced half for the overhead baseline, the isolated
	// layer calls, then the profiled and traced half.
	base, err := phase(b.budget/2, 2, false)
	if err != nil {
		return nil, err
	}
	iso, err := b.isolatedLayers(in, data, qs, opt, w.ranks)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced, err := phase(b.budget/2, 1, true)
	if err != nil {
		prof.discard()
		return nil, err
	}
	v := out.values
	for k, x := range iso {
		v[k] = x
	}
	problems, err := prof.stop(b, len(traced), iso, v)
	if err != nil {
		return nil, err
	}
	out.problems = append(out.problems, problems...)
	var baseHost, tracedHost []float64
	for _, r := range base {
		baseHost = append(baseHost, r.hostSec)
	}
	for _, r := range traced {
		tracedHost = append(tracedHost, r.hostSec)
	}
	v["trace.overhead_frac"] = median(tracedHost)/median(baseHost) - 1
	// Counts and virtual times are set 0's, which every traced phase
	// searches first.
	res := traced[0].res
	m := res.Metrics
	v["core.candidates"] = float64(m.Candidates)
	v["core.hits"] = float64(m.Hits)
	v["core.hit_ratio"] = float64(m.Hits) / float64(m.Candidates)
	v["cluster.max_resident_mb"] = float64(m.MaxResidentBytes()) / (1 << 20)
	criticalPath(res, v)
	for _, a := range res.Trace.Attempts {
		attemptPhases(a, v)
		attemptTraffic(a, v)
	}
	fmt.Fprintf(b.log, "critical path: compute %.4f + residual %.4f + sync %.4f vs, %.3g vs from the run time %.4f vs\n",
		v["cluster.path_compute_vs"], v["cluster.path_residual_vs"], v["cluster.path_sync_vs"], v["cluster.path_gap_vs"], m.RunSec)
	notApplicable(v, "serve.", "ckpt.", "placement.")
	return out, nil
}

// countMismatches counts queries whose hits differ from the reference or
// are missing.
func countMismatches(got []core.QueryResult, ref []core.QueryResult) int64 {
	seen := make([]bool, len(ref))
	var bad int64
	for _, q := range got {
		if q.Index < 0 || q.Index >= len(ref) || seen[q.Index] {
			bad++
			continue
		}
		seen[q.Index] = true
		if !sameHits(q.Hits, ref[q.Index].Hits) {
			bad++
		}
	}
	for _, s := range seen {
		if !s {
			bad++
		}
	}
	return bad
}
