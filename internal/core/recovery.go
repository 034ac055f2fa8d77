// Recovery drivers and their shared bookkeeping. RunElastic is the
// checkpointed engine: on a rank failure it resumes every query group from
// its last epoch checkpoint on the survivors. RunWithRecovery is the
// checkpoint-free fallback for engines with no resumable transport loop.
package core

import (
	"fmt"

	"pepscale/internal/cluster"
	"pepscale/internal/trace"
)

// RecoveryAttempt records one driver attempt.
type RecoveryAttempt struct {
	// Ranks is the attempt's live rank count p′.
	Ranks int
	// Err is the attempt's failure (nil for the successful attempt).
	Err error
	// FailedRanks lists the ranks that failed during the attempt.
	FailedRanks []int
	// RunSec is the attempt's parallel virtual time.
	RunSec float64
}

// Recovery summarizes the driver's fault handling for one search.
type Recovery struct {
	// Attempts holds every attempt in order; the last one succeeded.
	Attempts []RecoveryAttempt
	// CheckpointWrites and CheckpointBytes count stable-store traffic.
	CheckpointWrites int64
	CheckpointBytes  int64
}

// RunWithRecovery runs a standard engine (see Run) and, on a recoverable
// rank failure, re-runs it from scratch on the surviving rank count. It is
// the checkpoint-free fallback for engines without a resumable transport
// loop (e.g. Algorithm B, whose counting sort has no epoch structure);
// results are identical across rank counts, so a from-scratch re-run on
// p−1 ranks reproduces the failure-free hits exactly.
func RunWithRecovery(algo Algorithm, cfg cluster.Config, in Input, opt Options, faults []*cluster.FaultPlan, maxAttempts int) (*Result, *Recovery, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	p0 := cfg.Ranks
	if p0 < 1 {
		return nil, nil, fmt.Errorf("core: need at least 1 rank, got %d", p0)
	}
	if maxAttempts <= 0 {
		maxAttempts = p0
	}
	rec := &Recovery{}
	dead := 0
	var failedSec float64
	var atts []*trace.Attempt
	for attempt := 0; ; attempt++ {
		pLive := p0 - dead
		if pLive < 1 {
			return nil, rec, fmt.Errorf("core: all %d ranks failed", p0)
		}
		c := cfg
		c.Ranks = pLive
		c.Fault = nil
		if attempt < len(faults) {
			c.Fault = faults[attempt]
		}
		res, rep, err := runReported(algo, c, in, opt)
		att := RecoveryAttempt{Ranks: pLive}
		if rep != nil {
			att.Err = rep.Err
			att.FailedRanks = rep.FailedRanks
			att.RunSec = rep.runSec
			if rep.attempt != nil {
				rep.attempt.Label = fmt.Sprintf("attempt %d: %s", attempt, rep.attempt.Label)
				atts = append(atts, rep.attempt)
			}
		}
		rec.Attempts = append(rec.Attempts, att)
		if err == nil {
			res.Metrics.RunSec += failedSec
			if len(atts) > 0 {
				res.Trace = &trace.Trace{Attempts: atts}
			}
			return res, rec, nil
		}
		if rep == nil || !rep.Recoverable() {
			return nil, rec, err
		}
		if attempt+1 >= maxAttempts {
			return nil, rec, fmt.Errorf("core: giving up after %d attempts: %w", attempt+1, err)
		}
		dead += len(rep.FailedRanks)
		failedSec += rep.runSec
	}
}

// reportedRun couples a cluster.RunReport with the attempt's virtual time
// and (when tracing is enabled) its event trace.
type reportedRun struct {
	*cluster.RunReport
	runSec  float64
	attempt *trace.Attempt
}

// runReported is Run returning the machine's RunReport alongside the
// result, so drivers can distinguish recoverable failures.
func runReported(algo Algorithm, cfg cluster.Config, in Input, opt Options) (*Result, *reportedRun, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	mach, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	sh := newShared(cfg.Ranks)
	body, err := engineBody(algo, cfg, in, opt, sh)
	if err != nil {
		return nil, nil, err
	}
	rep := mach.RunWithReport(body)
	rr := &reportedRun{RunReport: rep, runSec: mach.MaxTime()}
	rr.attempt = mach.Trace(fmt.Sprintf("%s p=%d", algo.String(), cfg.Ranks))
	if rep.Err != nil {
		return nil, rr, rep.Err
	}
	metrics := buildMetrics(algo.String(), mach, sh.loadSec, sh.sortSec, sh.candidates, sh.queries)
	for _, qr := range sh.merged {
		metrics.Hits += int64(len(qr.Hits))
	}
	res := &Result{Queries: sh.merged, Metrics: metrics}
	if rr.attempt != nil {
		res.Trace = &trace.Trace{Attempts: []*trace.Attempt{rr.attempt}}
	}
	return res, rr, nil
}
