package fragidx

import (
	"pepscale/internal/score"
)

// Scratch is the per-rank accumulator of the fragment-index walks: one slot
// per candidate ordinal, zeroed per query over exactly the query's precursor
// window (BeginWindow), so a warmed walk performs zero heap allocations and
// no per-posting bookkeeping beyond the accumulation itself. Accumulator
// reads (MatchCount, QuickCount, Accum) are only meaningful for ordinals
// inside the window passed to the latest BeginWindow — the scan reads
// exactly those. Like a scanState, a Scratch belongs to one rank's sweep and
// is not safe for concurrent use.
//
//pepvet:perrank
type Scratch struct {
	// Match-walk accumulators, indexed by ordinal.
	n   []int32 // matched pass-0 fragments
	b   []int32 // matched pass-0 b-ions
	y   []int32 // matched pass-0 y-ions
	d   []int32 // distinct matched pass-0 bins
	dot []float64

	// Passes-walk accumulators, indexed 2·ordinal+c where c is 0 for the
	// model pass and 1 for any null pass: the matched query-independent term
	// sums Σ w·log(p1) − log(1−p1) with w = 0.5+0.5·inten, the matched
	// weight sums Σ w, and the matched counts. Accum recombines them with
	// the query's occupancy logs (lp0/l1p0) into the Model/Null sums of
	// score.MatchAccum.
	t2  []float64
	sw2 []float64
	c2  []int32

	// lp0/l1p0 hold log(p0) and log(1−p0) of the latest WalkPasses query.
	lp0, l1p0 float64

	// Quick-prefilter counter, independent of the match walk so a charge-1
	// prefilter walk can coexist with a higher-charge scoring walk.
	qn []int32

	// Per-tier row cursors (see cursorFor), reset lazily per scan, over the
	// tiers of idx, the index of the latest Begin.
	scan    uint64
	cursors []tierCursor
	idx     *Index

	// Bin-major passes-sweep state (see sweep.go).
	sweep sweep
}

// tierCursor carries one walked tier's per-row advance cursors: cur[r] is an
// index into the tier's postings no greater than the first posting of row r
// whose ordinal reaches the next window start. Valid because walks happen in
// ascending window-start order within a scan (queries are processed in mass
// order), so cursors only ever move forward.
type tierCursor struct {
	tier *Tier
	seen uint64 // scan stamp of the last reset
	cur  []int32
}

// Reset sizes the accumulators for a block of n candidates and starts a new
// scan (invalidating the row cursors). Accumulator contents are not cleared
// here — BeginWindow zeroes each query's window before its walks.
func (s *Scratch) Reset(n int) {
	if cap(s.n) < n {
		s.n = make([]int32, n)
		s.b = make([]int32, n)
		s.y = make([]int32, n)
		s.d = make([]int32, n)
		s.dot = make([]float64, n)
		s.t2 = make([]float64, 2*n)
		s.sw2 = make([]float64, 2*n)
		s.c2 = make([]int32, 2*n)
		s.qn = make([]int32, n)
	}
	s.n = s.n[:n]
	s.b = s.b[:n]
	s.y = s.y[:n]
	s.d = s.d[:n]
	s.dot = s.dot[:n]
	s.t2 = s.t2[:2*n]
	s.sw2 = s.sw2[:2*n]
	s.c2 = s.c2[:2*n]
	s.qn = s.qn[:n]
	s.scan++
}

// Begin starts a scan over x's block: it sizes the accumulators (Reset) and,
// when x is not the index of the previous scan, drops the row cursors of the
// old block's tiers, so a rank walking block after block keeps cursors only
// for the block at hand. The Index itself is shared; only these cursors are
// the rank's.
func (s *Scratch) Begin(x *Index) {
	if s.idx != x {
		for i := range s.cursors {
			s.cursors[i] = tierCursor{}
		}
		s.cursors = s.cursors[:0]
		s.idx = x
	}
	s.Reset(x.Len())
}

// cursorFor returns tier t's row cursors for the current scan, zeroing them
// on the scan's first walk of t. The handful of tiers a scan walks makes the
// linear probe cheaper than any map.
//
//pepvet:hotpath
func (s *Scratch) cursorFor(t *Tier) []int32 {
	for i := range s.cursors {
		c := &s.cursors[i]
		if c.tier != t {
			continue
		}
		if c.seen != s.scan {
			c.seen = s.scan
			for j := range c.cur {
				c.cur[j] = 0
			}
		}
		return c.cur
	}
	s.cursors = append(s.cursors, tierCursor{tier: t, seen: s.scan, cur: make([]int32, len(t.rowStart)-1)})
	return s.cursors[len(s.cursors)-1].cur
}

// BeginWindow prepares the accumulators for one query whose candidate
// window is [start, end): it zeroes exactly that ordinal range in every
// accumulator. Windows are tiny next to the block (tens of candidates), so
// the range clear replaces the old per-posting epoch-stamp check at a small
// fraction of its cost.
//
//pepvet:hotpath
func (s *Scratch) BeginWindow(start, end int) {
	if start < 0 {
		start = 0
	}
	if end > len(s.n) {
		end = len(s.n)
	}
	if end <= start {
		return
	}
	n := s.n[start:end]
	for i := range n {
		n[i] = 0
	}
	b := s.b[start:end]
	for i := range b {
		b[i] = 0
	}
	y := s.y[start:end]
	for i := range y {
		y[i] = 0
	}
	d := s.d[start:end]
	for i := range d {
		d[i] = 0
	}
	dot := s.dot[start:end]
	for i := range dot {
		dot[i] = 0
	}
	t2 := s.t2[2*start : 2*end]
	for i := range t2 {
		t2[i] = 0
	}
	sw2 := s.sw2[2*start : 2*end]
	for i := range sw2 {
		sw2[i] = 0
	}
	c2 := s.c2[2*start : 2*end]
	for i := range c2 {
		c2[i] = 0
	}
	qn := s.qn[start:end]
	for i := range qn {
		qn[i] = 0
	}
}

// WalkMatch walks the query's peak list (ascending bins with intensities)
// through a KindMatch tier, accumulating the pass-0 match statistics for
// every candidate in [start, end). Distinct-bin counting relies on the
// rows' ordinal order: within one row, repeat ordinals are adjacent.
//
// Successive walks of one tier within a scan must not decrease the window
// start (the row-cursor precondition); the scan guarantees this by
// processing queries in ascending parent-mass order.
//
//pepvet:hotpath
func (s *Scratch) WalkMatch(t *Tier, bins []int32, intens []float64, start, end int) {
	cur := s.cursorFor(t)
	lo, hi := int32(start), int32(end)
	rows := len(t.rowStart) - 1
	for pi, bin := range bins {
		r := int(bin) - int(t.minBin)
		if r < 0 || r >= rows {
			continue
		}
		rEnd := int(t.rowStart[r+1])
		i := int(cur[r])
		if base := int(t.rowStart[r]); i < base {
			i = base
		}
		for i < rEnd && t.ords[i] < lo {
			i++
		}
		cur[r] = int32(i)
		if i >= rEnd || t.ords[i] >= hi {
			continue
		}
		inten := intens[pi]
		prev := int32(-1)
		for j := i; j < rEnd; j++ {
			ord := t.ords[j]
			if ord >= hi {
				break
			}
			s.n[ord]++
			if t.metas[j]&metaSeriesBit != 0 {
				s.y[ord]++
			} else {
				s.b[ord]++
			}
			s.dot[ord] += inten
			if ord != prev {
				s.d[ord]++
				prev = ord
			}
		}
	}
}

// WalkPasses walks the peak list through a KindPasses tier, accumulating
// the matched likelihood terms of all four scoring passes from the tier's
// query-independent term tables. Per matched posting it adds
// w·log(p1) − log(1−p1) (w = 0.5+0.5·inten) plus the (w, count) sums Accum
// needs to restore the query's occupancy normalization — mathematically the
// matched log-ratio terms ScorePrepared sums, differing only by summation
// rearrangement, which score.FragBoundMargin covers.
//
//pepvet:hotpath
func (s *Scratch) WalkPasses(t *Tier, bq *score.BatchQuery, bins []int32, intens []float64, start, end int) {
	s.lp0, s.l1p0 = bq.OccLogs()
	cur := s.cursorFor(t)
	loKey := uint32(start) << keyOrdShift
	hiKey := uint32(end) << keyOrdShift
	rows := len(t.rowStart) - 1
	lastOrd := int32(-1)
	var tab []float64
	for pi, bin := range bins {
		r := int(bin) - int(t.minBin)
		if r < 0 || r >= rows {
			continue
		}
		rEnd := int(t.rowStart[r+1])
		i := int(cur[r])
		if base := int(t.rowStart[r]); i < base {
			i = base
		}
		for i+4 <= rEnd && t.keys[i+3] < loKey {
			i += 4
		}
		for i < rEnd && t.keys[i] < loKey {
			i++
		}
		cur[r] = int32(i)
		if i >= rEnd || t.keys[i] >= hiKey {
			continue
		}
		w := 0.5 + 0.5*intens[pi]
		for j := i; j < rEnd; j++ {
			key := t.keys[j]
			if key >= hiKey {
				break
			}
			ord := int32(key >> keyOrdShift)
			if ord != lastOrd {
				tab = t.terms[t.lens[ord]]
				lastOrd = ord
			}
			slot := int(key) & keySlotMask
			c := w*tab[2*slot] - tab[2*slot+1]
			idx := 2*int(ord) + int(key>>keyNullShift&1)
			s.t2[idx] += c
			s.sw2[idx] += w
			s.c2[idx]++
		}
	}
}

// WalkQuick walks the peak list through the charge-1 KindMatch tier into
// the independent quick-prefilter counters — the numerator of the
// QuickMatchFraction test, with multiplicity (each fragment counts once,
// duplicate bins included), exactly as score.QuickMatchFromBins counts.
//
//pepvet:hotpath
func (s *Scratch) WalkQuick(t *Tier, bins []int32, start, end int) {
	cur := s.cursorFor(t)
	lo, hi := int32(start), int32(end)
	rows := len(t.rowStart) - 1
	for _, bin := range bins {
		r := int(bin) - int(t.minBin)
		if r < 0 || r >= rows {
			continue
		}
		rEnd := int(t.rowStart[r+1])
		i := int(cur[r])
		if base := int(t.rowStart[r]); i < base {
			i = base
		}
		for i < rEnd && t.ords[i] < lo {
			i++
		}
		cur[r] = int32(i)
		for j := i; j < rEnd; j++ {
			ord := t.ords[j]
			if ord >= hi {
				break
			}
			s.qn[ord]++
		}
	}
}

// MatchCount returns ordinal ord's matched pass-0 fragment count from the
// main accumulator. ord must lie inside the latest BeginWindow range.
//
//pepvet:hotpath
func (s *Scratch) MatchCount(ord int) int32 { return s.n[ord] }

// QuickCount returns ordinal ord's quick-prefilter match count. ord must
// lie inside the latest BeginWindow range.
//
//pepvet:hotpath
func (s *Scratch) QuickCount(ord int) int32 { return s.qn[ord] }

// passSum recombines one accumulator lane with the query's occupancy logs:
// Σ (w·log(p1) − log(1−p1)) − log(p0)·Σw + log(1−p0)·count, which equals
// Σ (w·log(p1/p0) − log((1−p1)/(1−p0))) up to floating-point rearrangement.
// A zero count short-circuits to exactly 0 (and keeps a log(0) occupancy of
// an empty query from producing NaN via 0·∞).
//
//pepvet:hotpath
func (s *Scratch) passSum(idx int) float64 {
	cnt := s.c2[idx]
	if cnt == 0 {
		return 0
	}
	return s.t2[idx] - s.lp0*s.sw2[idx] + s.l1p0*float64(cnt)
}

// Accum returns ordinal ord's accumulated walk state as a score.MatchAccum.
// ord must lie inside the latest BeginWindow range; Predicted is left for
// the caller to fill from the tier.
//
//pepvet:hotpath
func (s *Scratch) Accum(ord int) score.MatchAccum {
	return score.MatchAccum{
		N:        s.n[ord],
		B:        s.b[ord],
		Y:        s.y[ord],
		Distinct: s.d[ord],
		Dot:      s.dot[ord],
		Model:    s.passSum(2 * ord),
		Null:     s.passSum(2*ord + 1),
	}
}
