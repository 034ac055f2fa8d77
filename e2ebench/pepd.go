package main

import (
	"fmt"
	"time"

	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/serve"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/trace"
)

// pepdRates is the offered-load ladder in queries per virtual second.
var pepdRates = []float64{6, 10, 14, 18}

// The arrival schedule and the spot-churn timeline are part of the
// workload's definition and do not change with the run seed, which selects
// the database and the query pool. With seeded arrivals the tail latency
// of a 120 vs horizon varies by more than half between seeds; with fixed
// arrivals it varies by under a tenth.
const (
	scheduleSeed = 1009
	churnSeed    = 41
)

// pepdWorkload is the streaming service under an open loop over virtual
// time: two tenants submit on a fixed schedule at each rate of the ladder
// while spot churn rotates members, one fresh server per rung.
type pepdWorkload struct {
	name           string
	seqs, pool     int
	members        int
	spares         int
	churn          int
	horizon, limit float64
	refRate        float64
}

func (w pepdWorkload) workloadName() string { return w.name }

// queueCap is the per-tenant ingress bound, above any rung's backlog.
const queueCap = 1 << 14

// minLadders is the fewest ladders an untraced run measures, so that
// host_qps is a median of at least three.
const minLadders = 3

// rung is one offered rate's outcome.
type rung struct {
	rate              float64
	attempted, failed int64
	rejected          int64
	sojourn           []float64
	p50, p99          float64
	// endSec is the server's virtual clock once the backlog drained.
	endSec  float64
	hostSec float64
	stats   serve.ServiceStats
	ckptW   int64
	ckptB   int64
	migB    int64
	hits    int64
	ids     []string
	trace   *trace.Trace
}

// ok reports whether the rung meets the service objective: p99 within the
// limit, nothing rejected or failed, and the backlog drained by the end of
// the horizon plus the limit.
func (r *rung) ok(horizon, limit float64) bool {
	return r.p99 <= limit && r.rejected == 0 && r.failed == 0 && r.endSec <= horizon+limit
}

// ladder is one pass over every rate.
type ladder struct {
	rungs   []*rung
	hostSec float64
	peakMB  float64
}

func (w pepdWorkload) tenants() []serve.TenantConfig {
	return []serve.TenantConfig{{Name: "steady", QuotaPerSec: -1}, {Name: "bursty", QuotaPerSec: -1}}
}

func (w pepdWorkload) load(rate float64) serve.LoadSpec {
	t := w.tenants()
	return serve.LoadSpec{Seed: scheduleSeed, HorizonSec: w.horizon, Loads: []serve.TenantLoad{
		{Tenant: t[0], Profile: serve.ProfileSteady, RatePerSec: 0.7 * rate},
		{Tenant: t[1], Profile: serve.ProfileBursty, RatePerSec: 0.3 * rate},
	}}
}

func (w pepdWorkload) run(b *bench) (*outcome, error) {
	opt := core.DefaultOptions()
	in, err := b.prepare(w.name, w.seqs, w.pool, opt)
	if err != nil {
		return nil, err
	}
	ref := make(map[string][]topk.Hit, len(in.ref))
	for _, q := range in.ref {
		ref[q.ID] = q.Hits
	}
	out := &outcome{values: map[string]float64{}}

	newServer := func(traced bool) (*serve.Server, []*spectrum.Spectrum, error) {
		data, qs, err := in.load()
		if err != nil {
			return nil, nil, err
		}
		srv, err := serve.New(serve.Config{
			DB: data, Opt: opt, Cost: cluster.GigabitCluster(),
			Membership: cluster.SpotMembershipPlan(w.members, w.spares, w.churn, w.horizon, churnSeed),
			Tenants:    w.tenants(), Trace: traced,
			// Both tenants are unmetered, and the ingress bound holds the
			// whole overload backlog: the top rung queues instead of
			// rejecting, so no query fails and its tail shows the overload.
			QueueCap: queueCap,
		})
		return srv, qs, err
	}
	var setups setupTimes

	// rungAt sets up a fresh server, timing the set-up, submits the
	// rate's schedule from one goroutine, drains it, and checks every
	// answer.
	rungAt := func(rate float64, traced bool) (*rung, error) {
		var srv *serve.Server
		var qs []*spectrum.Spectrum
		err := setups.measure(b, 1, func() (err error) {
			srv, qs, err = newServer(traced)
			return err
		})
		if err != nil {
			return nil, err
		}
		arrivals := serve.Schedule(w.load(rate), qs)
		r := &rung{rate: rate, attempted: int64(len(arrivals))}
		id := b.spans.begin("serve.Submit+Close")
		t1 := time.Now()
		for _, a := range arrivals {
			// A refused submission never completes, so it counts as a
			// failed query below.
			if _, retry := serve.IsRetryable(srv.Submit(a.AtSec, a.Tenant, a.Spec)); retry {
				r.rejected++
			}
		}
		err = srv.Close()
		r.hostSec = sinceSec(t1)
		b.spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("rate %g: %w", rate, err)
		}
		comps := srv.Completions()
		for _, c := range comps {
			want, ok := ref[c.QueryID]
			if !ok || !sameHits(c.Hits, want) {
				r.failed++
			}
			r.sojourn = append(r.sojourn, c.DoneSec-c.ArriveSec)
			r.hits += int64(len(c.Hits))
			r.ids = append(r.ids, c.QueryID)
		}
		r.failed += r.attempted - int64(len(comps))
		r.p50, r.p99 = percentile(r.sojourn, 0.50), percentile(r.sojourn, 0.99)
		r.endSec = srv.NowSec()
		r.stats = srv.Metrics()
		r.ckptW, r.ckptB, r.migB = srv.CheckpointWrites(), srv.CheckpointBytes(), srv.MigrationBytes()
		r.trace = srv.Trace()
		out.attempted += r.attempted
		out.failed += r.failed
		return r, nil
	}
	var first *ladder
	runLadder := func(traced bool) (*ladder, error) {
		settle()
		l := &ladder{}
		for _, rate := range pepdRates {
			r, err := rungAt(rate, traced)
			if err != nil {
				return nil, err
			}
			l.rungs = append(l.rungs, r)
			l.hostSec += r.hostSec
		}
		l.peakMB = peakRSSMB()
		if first == nil {
			first = l
		} else {
			for i, r := range l.rungs {
				f := first.rungs[i]
				if r.p50 != f.p50 || r.p99 != f.p99 || r.endSec != f.endSec || r.stats != f.stats {
					out.problems = append(out.problems, fmt.Sprintf("rate %g: virtual metrics did not repeat", r.rate))
				}
			}
		}
		return l, nil
	}
	phase := func(budget time.Duration, min int, traced bool) ([]*ladder, error) {
		var ls []*ladder
		start := time.Now()
		for len(ls) < min || time.Since(start) < budget {
			l, err := runLadder(traced)
			if err != nil {
				return nil, err
			}
			ls = append(ls, l)
		}
		return ls, nil
	}
	completed := func(l *ladder) float64 {
		var n int64
		for _, r := range l.rungs {
			n += int64(len(r.sojourn))
		}
		return float64(n)
	}

	if !b.traced {
		ls, err := phase(b.budget, minLadders, false)
		if err != nil {
			return nil, err
		}
		var qps, peak []float64
		for _, l := range ls {
			qps = append(qps, completed(l)/l.hostSec)
			peak = append(peak, l.peakMB)
		}
		w.printLadder(b, first)
		fmt.Fprintf(b.log, "%d ladders at %.1f q/s host; set-up median of %d: %.4f s\n", len(ls), qps, len(setups), median(setups))
		refRung := first.rungAt(w.refRate)
		v := out.values
		v["setup_s"] = median(setups)
		v["host_qps"] = median(qps)
		v["peak_rss_mb"] = median(peak)
		v["virtual_run_s"] = refRung.endSec
		v["sojourn_p50_vs"] = refRung.p50
		v["sojourn_p99_vs"] = refRung.p99
		v["goodput_qps_v"] = w.goodput(first)
		v["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		return out, nil
	}

	base, err := phase(b.budget/2, 2, false)
	if err != nil {
		return nil, err
	}
	data, qs, err := in.load()
	if err != nil {
		return nil, err
	}
	iso, err := b.isolatedLayers(in, data, qs, opt, w.members)
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
	for _, l := range base {
		baseHost = append(baseHost, l.hostSec)
	}
	for _, l := range traced {
		tracedHost = append(tracedHost, l.hostSec)
	}
	v["trace.overhead_frac"] = median(tracedHost)/median(baseHost) - 1
	w.printLadder(b, first)

	candidates, err := windowCandidates(data, qs, opt, in.refCandidates)
	if err != nil {
		return nil, err
	}
	l := traced[len(traced)-1]
	var st serve.ServiceStats
	for _, r := range l.rungs {
		st.Admitted += r.stats.Admitted
		st.RejectedQuota += r.stats.RejectedQuota
		st.RejectedQueue += r.stats.RejectedQueue
		st.Batches += r.stats.Batches
		st.Quanta += r.stats.Quanta
		st.Rotations += r.stats.Rotations
		st.Migrations += r.stats.Migrations
		v["ckpt.writes"] += float64(r.ckptW)
		v["ckpt.bytes"] += float64(r.ckptB)
		v["placement.migration_bytes"] += float64(r.migB)
		v["core.hits"] += float64(r.hits)
		for _, id := range r.ids {
			v["core.candidates"] += float64(candidates[id])
		}
		v[fmt.Sprintf("serve.p99_vs.r%g", r.rate)] = r.p99
		v[fmt.Sprintf("serve.attempted.r%g", r.rate)] = float64(r.attempted)
		v[fmt.Sprintf("serve.failed.r%g", r.rate)] = float64(r.failed)
		for _, a := range r.trace.Attempts {
			attemptPhases(a, v)
			attemptTraffic(a, v)
		}
	}
	v["serve.admitted"] = float64(st.Admitted)
	v["serve.rejected"] = float64(st.RejectedQuota + st.RejectedQueue)
	v["serve.batches"] = float64(st.Batches)
	v["serve.mean_batch"] = float64(st.Admitted) / float64(st.Batches)
	v["serve.quanta"] = float64(st.Quanta)
	v["serve.rotations"] = float64(st.Rotations)
	v["placement.migrations"] = float64(st.Migrations)
	v["core.hit_ratio"] = v["core.hits"] / v["core.candidates"]
	// The critical path and resident-memory high-water mark are batch-run
	// outputs; pepd's machine does not report them.
	notApplicable(v, "cluster.path_", "cluster.max_resident_mb")
	return out, nil
}

// rungAt returns the ladder's rung at rate.
func (l *ladder) rungAt(rate float64) *rung {
	for _, r := range l.rungs {
		if r.rate == rate {
			return r
		}
	}
	return nil
}

// goodput is the highest offered rate that meets the objective. The
// ladder is walked upward to the first rung that misses it; between that
// rung and the one below, p99 is interpolated linearly to where it crosses
// the limit. A rung that fails with p99 inside the limit (rejections, an
// undrained backlog) caps goodput at the rung below; a failing first rung
// is scaled from the origin.
func (w pepdWorkload) goodput(l *ladder) float64 {
	prevRate, prevP99 := 0.0, 0.0
	for _, r := range l.rungs {
		if r.ok(w.horizon, w.limit) {
			prevRate, prevP99 = r.rate, r.p99
			continue
		}
		if r.p99 <= w.limit || r.p99 <= prevP99 {
			return prevRate
		}
		return prevRate + (r.rate-prevRate)*(w.limit-prevP99)/(r.p99-prevP99)
	}
	return prevRate
}

// printLadder writes the per-rung table: attempted and failed queries,
// rejections, sojourn percentiles and whether the rung met the objective.
func (w pepdWorkload) printLadder(b *bench, l *ladder) {
	fmt.Fprintf(b.log, "open loop over virtual time, %g vs horizon, p99 limit %g vs, reference rate %g q/vs; load-generator lateness is zero by construction\n",
		w.horizon, w.limit, w.refRate)
	fmt.Fprintf(b.log, "  %6s %9s %6s %8s %9s %9s %9s %6s %8s\n", "q/vs", "attempted", "failed", "rejected", "p50 vs", "p99 vs", "end vs", "ok", "host s")
	for _, r := range l.rungs {
		fmt.Fprintf(b.log, "  %6g %9d %6d %8d %9.4f %9.4f %9.3f %6v %8.3f\n", r.rate, r.attempted, r.failed, r.rejected,
			r.p50, r.p99, r.endSec, r.ok(w.horizon, w.limit), r.hostSec)
	}
	fmt.Fprintf(b.log, "goodput %.4f q/vs (p99 crossing of the limit, interpolated on the ladder)\n", w.goodput(l))
}

// windowCandidates counts each query's candidates — database peptides in
// its parent-mass window — from one digest index over the whole database.
// The service does not report candidates, so this derives them; their sum
// over the pool must equal core.Serial's count.
func windowCandidates(data []byte, qs []*spectrum.Spectrum, opt core.Options, want int64) (map[string]int64, error) {
	recs, err := fasta.ParseBytes(data)
	if err != nil {
		return nil, err
	}
	ix, err := digest.NewIndex(recs, 0, opt.Digest)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(qs))
	var sum int64
	for _, q := range qs {
		lo, hi := opt.Tol.Window(q.ParentMass())
		n := int64(ix.CountInWindow(lo, hi))
		out[q.ID] = n
		sum += n
	}
	if sum != want {
		return nil, fmt.Errorf("derived candidate count %d differs from core.Serial's %d", sum, want)
	}
	return out, nil
}
