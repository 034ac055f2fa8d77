// Command e2ebench is pepscale's end-to-end benchmark. It runs one named
// workload from a seed, checks every query's hits against core.Serial, and
// prints the end-to-end metrics as one JSON object on the last line of
// standard output. With -trace 1 it instead makes the traced run and prints
// the per-layer split: CPU per layer from a profile, isolated layer calls
// from benchmark-side spans, and counts and virtual time from the
// program's own outputs.
//
// Run it from the root of a pepscale checkout:
//
//	bash e2ebench/run.sh --workload pepd-churn --seed 7 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads, the metric glossary and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and prints its result. The exit
// code is 0 only when a result line was printed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measuring time of the run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	dir := fs.String("dir", filepath.Join(".bench_build", "e2ebench"), "directory for cached inputs and references, and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "e2ebench: run from the root of a pepscale checkout")
		return 2
	}
	b := &bench{
		dir:    *dir,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		log:    stdout,
		host:   hostContext("."),
	}
	b.spans.on = b.traced
	res, err := b.runWorkload(w)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.workloadName(), err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in report order, with their units;
// a run with tracing off prints exactly these.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_qps", "q/s"},
	{"peak_rss_mb", "MB"},
	{"virtual_run_s", "vs"},
	{"sojourn_p50_vs", "vs"},
	{"sojourn_p99_vs", "vs"},
	{"goodput_qps_v", "q/vs"},
	{"ok_frac", "fraction"},
}

// bench is the state of one run.
type bench struct {
	dir    string
	seed   int64
	budget time.Duration
	traced bool
	log    io.Writer
	host   map[string]string
	spans  spanLog
}

// outcome is what a workload reports back to runWorkload.
type outcome struct {
	attempted, failed int64
	// problems are violations that make the run incorrect although no
	// query failed: virtual metrics that did not repeat, a fold that does
	// not sum to its total.
	problems []string
	values   map[string]float64
}

// workload is one named benchmark workload.
type workload interface {
	workloadName() string
	run(b *bench) (*outcome, error)
}

// runWorkload runs w, checks its metric set and builds the result.
func (b *bench) runWorkload(w workload) (*result, error) {
	fmt.Fprintf(b.log, "workload %s seed %d seconds %.0f trace %v\n", w.workloadName(), b.seed, b.budget.Seconds(), b.traced)
	ctx, _ := json.Marshal(b.host)
	fmt.Fprintf(b.log, "context %s\n", ctx)
	out, err := w.run(b)
	if err != nil {
		return nil, err
	}
	if b.traced {
		if err := b.writeSpans(w.workloadName()); err != nil {
			return nil, err
		}
	}
	want := perLayerUnits()
	if !b.traced {
		want = map[string]string{}
		for _, m := range endToEnd {
			want[m.name] = m.unit
		}
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	var missing []string
	for name, unit := range want {
		v, ok := out.values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range out.values {
		if _, ok := want[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics missing or not finite: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, errors.New("no query attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintf(b.log, "problem: %s\n", p)
	}
	res.Correct = out.failed == 0 && len(out.problems) == 0
	b.printMetrics(res)
	return res, nil
}

// printMetrics writes the metrics as an aligned table ahead of the JSON
// line.
func (b *bench) printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b.log, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(b.log, "  %-28s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// setupTimes collects the set-up times of a run. Set-up is repeated
// before every measured operation rather than all at the start, so that
// setup_s, their median, spans the same stretch of time as the other
// figures and not one moment of a host whose speed drifts.
type setupTimes []float64

// measure times reps set-ups, each after a garbage collection so that no
// repetition pays for another's garbage.
func (ts *setupTimes) measure(b *bench, reps int, setup func() error) error {
	for i := 0; i < reps; i++ {
		runtime.GC()
		id := b.spans.begin("setup")
		t0 := time.Now()
		err := setup()
		*ts = append(*ts, sinceSec(t0))
		b.spans.end(id)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
