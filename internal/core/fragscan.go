// The fragment-index block scan (ScanModeFragIdx).
//
// Both existing kernels derive every candidate's theoretical fragments at
// scan time — the query-major reference once per (query, candidate) pair,
// the peptide-major sweep once per (candidate, charge) group. This path
// eliminates fragment generation from the scan entirely: the block's
// fragments are enumerated ONCE per run into an inverted m/z-bin index
// (internal/fragidx) that every rank scanning the block shares, and each
// query walks its occupied peak bins through the index, touching exactly
// the postings of fragments that match a peak.
// The walk accumulates per-candidate match statistics — and, for the
// likelihood model, the matched log-ratio terms of all four scoring passes
// — in a window-zeroed accumulator; score.Scorer.BoundFromAccum then
// yields either the exact score (bit-identical, no further work) or a sound
// upper bound, so Prepare/ScorePrepared runs only for candidates that can
// still beat MinScore and the query's current top-τ threshold.
//
// The likelihood (passes) walk is bin-major and tiled: queries are grouped
// into mass-ordered tiles, each tile's peak lists are inverted into per-row
// entry lists, and the tier's posting rows are swept in ascending order —
// postings stream sequentially instead of scattering across hundreds of
// interleaved row cursors, and a tile's per-candidate accumulator lanes
// stay cache-resident (see fragidx.Scratch.SweepPasses). The match-stat
// walks keep the per-query row-cursor form, whose payload per candidate is
// a fraction of the passes tier's.
//
// Bit-identity with the reference scan: each query visits its window's
// candidates in ascending index order, the prefilter fraction is computed
// by the identical division on identical integers, exact bounds are the
// identical float64s ScorePrepared would produce, and survivors are scored
// through the same Prepare/ScorePrepared entry points reading the same
// per-query term memos — so scores, Offer order, hit lists, and scanStats
// (and with them the virtual clock and traces) match the other kernels
// byte-for-byte. Skipped candidates are provably below the acceptance
// thresholds, which the reference drops too.

package core

import (
	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/fragidx"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// passTileCands caps the candidate lanes of one sweep tile so the tile's
// accumulators stay cache-resident (~64k candidates × 32 B ≈ 2 MB): larger
// tiles amortize the per-row cursor re-crawl across more queries, until the
// lanes spill the last private cache level and the accumulation itself
// starts missing (measured knee between 1<<16 and 1<<17 on the q=4096
// likelihood benchmark).
const passTileCands = 1 << 16

// scanFragIdx runs the fragment-index scan over fx, the block's inverted
// index. Callers guarantee opt.Score.Library == nil (see scanState.scan).
//
//pepvet:hotpath
func (ss *scanState) scanFragIdx(qs []*score.Query, lists []*topk.List, ix *digest.Index, fx *fragidx.Index, sc score.Scorer, opt Options, idOf func(int32) string) scanStats {
	var st scanStats
	n := len(qs)
	if n == 0 || ix.Len() == 0 {
		return st
	}

	ss.bindQueries(qs)
	ss.computeWindows(qs, ix, opt, &st)

	// fx is shared by every rank scanning the block (the engines take it
	// from the index cache), so each tier is built once by its first
	// requester. Only the walk accumulators and row cursors are this rank's.
	ss.fscr.Begin(fx)

	if sc.FragWalk() == score.FragWalkPasses {
		ss.scanFragIdxPasses(qs, lists, ix, fx, sc, opt, idOf, &st)
	} else {
		ss.scanFragIdxMatch(qs, lists, ix, fx, sc, opt, idOf, &st)
	}
	return st
}

// scanFragIdxMatch scans with the per-query match-statistics walk (hyper,
// sharedpeaks, xcorr). Queries are processed in ascending parent-mass
// order: each query's work is self-contained (own list, commutative stat
// sums), and the monotone window starts let the walks advance per-row
// cursors instead of binary-searching every row (see fragidx.Scratch).
//
//pepvet:hotpath
func (ss *scanState) scanFragIdxMatch(qs []*score.Query, lists []*topk.List, ix *digest.Index, fx *fragidx.Index, sc score.Scorer, opt Options, idOf func(int32) string, st *scanStats) {
	mods := opt.Digest.Mods
	for _, qi32 := range ss.order {
		qi := int(qi32)
		q := qs[qi]
		w := ss.wins[qi]
		if w.end <= w.start {
			continue
		}
		bq := &ss.bqs[qi]
		list := lists[qi]
		peakBins, peakInt := bq.Peaks()
		maxZ := spectrum.EffectiveMaxFragmentCharge(opt.Score.Theoretical, q.Charge)

		ss.fscr.BeginWindow(w.start, w.end)
		tier := fx.Tier(maxZ, fragidx.KindMatch)
		ss.fscr.WalkMatch(tier, peakBins, peakInt, w.start, w.end)

		var quick *fragidx.Tier
		quickIsMain := false
		if opt.Prefilter > 0 {
			quick = fx.Tier(1, fragidx.KindMatch)
			quickIsMain = quick == tier
			if !quickIsMain {
				ss.fscr.WalkQuick(quick, peakBins, w.start, w.end)
			}
		}

		for i := w.start; i < w.end; i++ {
			if quick != nil {
				// Identical numerator, denominator, and division as
				// score.QuickMatchFromBins (empty fragment lists score 0).
				var matched int32
				if quickIsMain {
					matched = ss.fscr.MatchCount(i)
				} else {
					matched = ss.fscr.QuickCount(i)
				}
				if !quickPass(quick, i, matched, opt.Prefilter) {
					st.Prefiltered++
					continue
				}
			}

			var s float64
			scored := false
			if tier != nil {
				acc := ss.fscr.Accum(i)
				acc.Predicted = tier.Predicted(i)
				bound, exact := sc.BoundFromAccum(bq, acc)
				if exact {
					s = bound
					scored = true
				} else {
					if bound <= opt.MinScore {
						continue
					}
					if thr, full := list.Threshold(); full && bound < thr {
						continue
					}
				}
			}
			ss.fragScoreOffer(q, bq, list, ix, sc, mods, idOf, st, i, s, scored, opt.MinScore)
		}
	}
}

// scanFragIdxPasses scans with the bin-major tiled likelihood sweep. Tiles
// follow the mass order, so both the sweep's per-row cursors and the quick
// walk's cursors keep the monotone-window invariant.
//
//pepvet:hotpath
func (ss *scanState) scanFragIdxPasses(qs []*score.Query, lists []*topk.List, ix *digest.Index, fx *fragidx.Index, sc score.Scorer, opt Options, idOf func(int32) string, st *scanStats) {
	mods := opt.Digest.Mods
	order := ss.order
	for lo := 0; lo < len(order); {
		// Grow the tile until its candidate lanes would spill the cache.
		hi := lo
		cands := 0
		for hi < len(order) {
			w := ss.wins[order[hi]]
			c := w.end - w.start
			if c > 0 && cands > 0 && cands+c > passTileCands {
				break
			}
			cands += c
			hi++
		}

		ss.passTile = ss.passTile[:0]
		for _, qi32 := range order[lo:hi] {
			qi := int(qi32)
			w := ss.wins[qi]
			pq := fragidx.PassQuery{Start: w.start, End: w.end}
			if w.end > w.start {
				q := qs[qi]
				bq := &ss.bqs[qi]
				maxZ := spectrum.EffectiveMaxFragmentCharge(opt.Score.Theoretical, q.Charge)
				// nil when the block's fragment slots exceed the packable
				// range — no bounds then; every candidate takes the
				// full-score path.
				pq.Tier = fx.Tier(maxZ, fragidx.KindPasses)
				pq.Bins, pq.Intens = bq.Peaks()
				pq.LP0, pq.L1P0 = bq.OccLogs()
			}
			ss.passTile = append(ss.passTile, pq)
		}
		ss.fscr.SweepPasses(ss.passTile)

		for ti, qi32 := range order[lo:hi] {
			qi := int(qi32)
			q := qs[qi]
			w := ss.wins[qi]
			if w.end <= w.start {
				continue
			}
			bq := &ss.bqs[qi]
			list := lists[qi]
			tier := ss.passTile[ti].Tier

			var quick *fragidx.Tier
			if opt.Prefilter > 0 {
				// The passes tier is never the quick (match) tier, so the
				// quick walk always runs here.
				quick = fx.Tier(1, fragidx.KindMatch)
				peakBins, _ := bq.Peaks()
				ss.fscr.BeginWindow(w.start, w.end)
				ss.fscr.WalkQuick(quick, peakBins, w.start, w.end)
			}

			for i := w.start; i < w.end; i++ {
				if quick != nil {
					if !quickPass(quick, i, ss.fscr.QuickCount(i), opt.Prefilter) {
						st.Prefiltered++
						continue
					}
				}

				var s float64
				scored := false
				if tier != nil {
					acc := ss.fscr.SweepAccum(ti, i)
					acc.Predicted = tier.Predicted(i)
					bound, exact := sc.BoundFromAccum(bq, acc)
					if exact {
						s = bound
						scored = true
					} else {
						if bound <= opt.MinScore {
							continue
						}
						if thr, full := list.Threshold(); full && bound < thr {
							continue
						}
					}
				}
				ss.fragScoreOffer(q, bq, list, ix, sc, mods, idOf, st, i, s, scored, opt.MinScore)
			}
		}
		lo = hi
	}
}

// quickPass applies the prefilter fraction test — the identical numerator,
// denominator, and division as score.QuickMatchFromBins (empty fragment
// lists score 0).
//
//pepvet:hotpath
func quickPass(quick *fragidx.Tier, i int, matched int32, prefilter float64) bool {
	nf := quick.NFrags(i)
	var frac float64
	if nf > 0 {
		frac = float64(matched) / float64(nf)
	}
	return frac >= prefilter
}

// fragScoreOffer finishes one candidate: full-scores it unless the bound
// was exact, applies the acceptance thresholds, and offers the hit — the
// shared tail of both fragment-index scan loops.
//
//pepvet:hotpath
func (ss *scanState) fragScoreOffer(q *score.Query, bq *score.BatchQuery, list *topk.List, ix *digest.Index, sc score.Scorer, mods []chem.Mod, idOf func(int32) string, st *scanStats, i int, s float64, scored bool, minScore float64) {
	if !scored {
		pep := ix.At(i)
		deltas := pep.AppendModDeltas(ss.deltaBuf, mods)
		if deltas != nil {
			ss.deltaBuf = deltas
		}
		sc.Prepare(&ss.prep, pep.Seq, deltas, q.Charge)
		s = sc.ScorePrepared(bq, &ss.prep)
	}

	if s <= minScore {
		return
	}
	if thr, full := list.Threshold(); full && s < thr {
		return
	}
	pep := ix.At(i)
	hit := topk.Hit{
		Peptide:   pep.Annotated(mods),
		Protein:   pep.Protein,
		ProteinID: idOf(pep.Protein),
		Mass:      pep.Mass,
		Score:     s,
	}
	if list.Offer(hit) {
		st.Offered++
	}
}
