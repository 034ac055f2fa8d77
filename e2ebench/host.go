package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostContext records what a result was measured on, so that a change of
// numbers can be told apart from a change of host: commit, a digest of the
// sources, Go version, GOMAXPROCS, CPU count and model, and the load
// average when the run started.
func hostContext(root string) map[string]string {
	load, _ := os.ReadFile("/proc/loadavg")
	avg := strings.Fields(string(load))
	if len(avg) > 3 {
		avg = avg[:3]
	}
	return map[string]string{
		"commit":     gitCommit(root),
		"source":     sourceDigest(root),
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"loadavg":    strings.Join(avg, " "),
	}
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; "unknown" when the checkout is not a git repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod of the checkout (paths
// and contents, in sorted order), identifying the code measured even where
// there is no git history.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// settle collects garbage, returns freed memory to the OS and resets the
// process's peak-RSS mark, so the next peakRSSMB reading covers only what
// runs after it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns VmHWM in MiB (0 where /proc is unavailable).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(v))
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeCounters samples the runtime/metrics counters the traced run
// reports: bytes allocated, GC cycles and GC CPU time.
type runtimeCounters struct {
	allocBytes, gcCycles, gcCPUSec float64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles, c.gcCPUSec - o.gcCPUSec}
}

// span is one benchmark-side call into a layer: name, start, end and the
// span that caused it (0 for a root span). Times are seconds since the run
// started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps the spans of a traced run in memory; they are written out
// when the run ends. When off, begin and end do nothing.
type spanLog struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

// begin opens a span as a child of the innermost open span and returns its
// id (0 when off).
func (l *spanLog) begin(name string) int {
	if !l.on {
		return 0
	}
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans) + 1
	now := time.Since(l.t0).Seconds()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	l.open = append(l.open, id)
	return id
}

// end closes span id and every span opened inside it.
func (l *spanLog) end(id int) {
	if !l.on || id == 0 {
		return
	}
	now := time.Since(l.t0).Seconds()
	for len(l.open) > 0 {
		top := l.open[len(l.open)-1]
		l.open = l.open[:len(l.open)-1]
		l.spans[top-1].End = now
		if top == id {
			return
		}
	}
}

// durations returns the durations of every span with the given name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfSec returns a span's self time: its duration minus the part its
// direct children cover.
func (l *spanLog) selfSec(id int) float64 {
	s := l.spans[id-1]
	self := s.End - s.Start
	for _, c := range l.spans {
		if c.Parent == id {
			self -= c.End - c.Start
		}
	}
	return self
}

// writeSpans writes the span log, with each span's self time, to
// <dir>/spans-<workload>-seed<seed>.json.
func (b *bench) writeSpans(workload string) error {
	type out struct {
		span
		SelfS float64 `json:"self_s"`
	}
	all := make([]out, len(b.spans.spans))
	for i, s := range b.spans.spans {
		all[i] = out{s, b.spans.selfSec(s.ID)}
	}
	data, err := json.MarshalIndent(map[string]any{"context": b.host, "spans": all}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.dir, fmt.Sprintf("spans-%s-seed%d.json", workload, b.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "spans %d written to %s\n", len(all), path)
	return nil
}
