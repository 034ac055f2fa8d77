package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"

	"pepscale/internal/core"
	"pepscale/internal/trace"
)

// perLayer lists the per-layer metrics with their units; a traced run
// prints exactly these. CPU and runtime figures are per operation (one
// search, or one pepd ladder); counts and virtual times are those of one
// operation, which repeat exactly.
func perLayerUnits() map[string]string {
	m := map[string]string{
		"trace.overhead_frac":       "fraction",
		"trace.profile_cpu_s":       "s",
		"trace.samples":             "count",
		"fasta.parse_s":             "s",
		"spectrum.mgf_parse_s":      "s",
		"digest.block_build_s":      "s",
		"digest.peptides":           "count",
		"digest.builds_est":         "count",
		"fragidx.block_build_s":     "s",
		"fragidx.postings":          "count",
		"fragidx.builds_est":        "count",
		"core.serial_s":             "s",
		"core.candidates":           "count",
		"core.hits":                 "count",
		"core.hit_ratio":            "fraction",
		"cluster.path_compute_vs":   "vs",
		"cluster.path_residual_vs":  "vs",
		"cluster.path_sync_vs":      "vs",
		"cluster.path_gap_vs":       "vs",
		"fasta.load_vs":             "vs",
		"sortmz.sort_vs":            "vs",
		"core.scan_vs":              "vs",
		"core.report_wait_vs":       "vs",
		"cluster.messages":          "count",
		"cluster.bytes_sent":        "B",
		"cluster.rma_bytes":         "B",
		"cluster.rma_retries":       "count",
		"cluster.max_resident_mb":   "MB",
		"serve.admitted":            "count",
		"serve.rejected":            "count",
		"serve.batches":             "count",
		"serve.mean_batch":          "count",
		"serve.quanta":              "count",
		"serve.rotations":           "count",
		"ckpt.writes":               "count",
		"ckpt.bytes":                "B",
		"placement.migrations":      "count",
		"placement.migration_bytes": "B",
		"runtime.alloc_mb":          "MB",
		"runtime.gc_cycles":         "count",
		"runtime.gc_cpu_s":          "s",
	}
	for _, l := range allLayers() {
		m[l+".cpu_s"] = "s"
		m[l+".cpu_share"] = "fraction"
	}
	for _, r := range pepdRates {
		m[fmt.Sprintf("serve.p99_vs.r%g", r)] = "vs"
		m[fmt.Sprintf("serve.attempted.r%g", r)] = "count"
		m[fmt.Sprintf("serve.failed.r%g", r)] = "count"
	}
	return m
}

// Functions whose inclusive CPU estimates how many index builds a run did.
const (
	digestBuildFunc  = "pepscale/internal/digest.NewIndexIDs"
	fragidxBuildFunc = "pepscale/internal/fragidx.(*Index).Tier"
)

// profiler brackets the profiled part of a traced run.
type profiler struct {
	buf    bytes.Buffer
	before runtimeCounters
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	p.before = readRuntimeCounters()
	return p, nil
}

// discard ends the profile without reading it.
func (p *profiler) discard() { pprof.StopCPUProfile() }

// stop ends the profile, folds it into the per-layer table (per operation
// over ops operations) and prints the table. isolated supplies the
// isolated build times that turn inclusive build CPU into build-count
// estimates. A fold that does not sum exactly to the profile total is
// returned as a problem.
func (p *profiler) stop(b *bench, ops int, isolated map[string]float64, vals map[string]float64) ([]string, error) {
	pprof.StopCPUProfile()
	rc := readRuntimeCounters().sub(p.before)
	prof, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	per := func(x float64) float64 { return x / float64(ops) }
	fold := prof.fold()
	var sum int64
	var problems []string
	for _, ns := range fold {
		sum += ns
	}
	if sum != prof.totalNS || prof.totalNS <= 0 {
		problems = append(problems, fmt.Sprintf("per-layer CPU sums to %d ns, profile total %d ns", sum, prof.totalNS))
	}
	total := float64(prof.totalNS)
	fmt.Fprintf(b.log, "per-layer host CPU, %d samples, %.3f s per operation over %d operations (fold sums exactly: %v)\n",
		len(prof.samples), per(total/1e9), ops, sum == prof.totalNS)
	rows := allLayers()
	sort.SliceStable(rows, func(i, j int) bool { return fold[rows[i]] > fold[rows[j]] })
	for _, l := range rows {
		share := 0.0
		if total > 0 {
			share = float64(fold[l]) / total
		}
		vals[l+".cpu_s"] = per(float64(fold[l]) / 1e9)
		vals[l+".cpu_share"] = share
		fmt.Fprintf(b.log, "  %-10s %10.4f s %6.1f%%\n", l, vals[l+".cpu_s"], 100*share)
	}
	vals["trace.profile_cpu_s"] = per(total / 1e9)
	vals["trace.samples"] = float64(len(prof.samples))
	vals["runtime.alloc_mb"] = per(rc.allocBytes / (1 << 20))
	vals["runtime.gc_cycles"] = per(rc.gcCycles)
	vals["runtime.gc_cpu_s"] = per(rc.gcCPUSec)
	est := func(fn, build string) float64 {
		if isolated[build] <= 0 {
			return 0
		}
		return per(float64(prof.inclusiveNS(fn))/1e9) / isolated[build]
	}
	vals["digest.builds_est"] = est(digestBuildFunc, "digest.block_build_s")
	vals["fragidx.builds_est"] = est(fragidxBuildFunc, "fragidx.block_build_s")
	return problems, nil
}

// attemptPhases adds a trace attempt's per-phase virtual time to vals: the
// compute, residual-communication and synchronization seconds of every
// event in the phase, summed over ranks and divided by the rank count, so
// a rank's phases add up to its clock.
func attemptPhases(a *trace.Attempt, vals map[string]float64) {
	names := map[string]string{
		"load":   "fasta.load_vs",
		"sort":   "sortmz.sort_vs",
		"scan":   "core.scan_vs",
		"report": "core.report_wait_vs",
	}
	for _, n := range names {
		if _, ok := vals[n]; !ok {
			vals[n] = 0
		}
	}
	ranks := float64(a.Ranks)
	if ranks <= 0 {
		return
	}
	for _, r := range a.PhaseRollups() {
		if n, ok := names[r.Phase]; ok {
			vals[n] += (r.Delta.ComputeSec + r.Delta.ResidualCommSec + r.Delta.SyncWaitSec) / ranks
		}
	}
}

// attemptTraffic adds an attempt's message and byte totals to vals.
func attemptTraffic(a *trace.Attempt, vals map[string]float64) {
	for _, d := range a.RankTotals() {
		vals["cluster.messages"] += float64(d.Messages)
		vals["cluster.bytes_sent"] += float64(d.BytesSent)
		vals["cluster.rma_bytes"] += float64(d.RMABytesReceived)
		vals["cluster.rma_retries"] += float64(d.RMARetries)
	}
}

// criticalPath adds the critical-path decomposition of a batch run and
// its distance from the run time.
func criticalPath(res *core.Result, vals map[string]float64) {
	if res.Trace == nil || len(res.Trace.Attempts) == 0 {
		return
	}
	a := res.Trace.Attempts[len(res.Trace.Attempts)-1]
	d := trace.PathBreakdown(a.CriticalPath())
	vals["cluster.path_compute_vs"] = d.ComputeSec
	vals["cluster.path_residual_vs"] = d.ResidualCommSec
	vals["cluster.path_sync_vs"] = d.SyncWaitSec
	vals["cluster.path_gap_vs"] = res.Metrics.RunSec - (d.ComputeSec + d.ResidualCommSec + d.SyncWaitSec)
}

// notApplicable sets to zero every per-layer metric under the given name
// prefixes that the workload does not have (pepd's service counters on a
// batch search, a batch run's critical path on pepd), so every traced run
// reports the full per-layer set.
func notApplicable(v map[string]float64, prefixes ...string) {
	for name := range perLayerUnits() {
		for _, p := range prefixes {
			if _, ok := v[name]; !ok && strings.HasPrefix(name, p) {
				v[name] = 0
			}
		}
	}
}
