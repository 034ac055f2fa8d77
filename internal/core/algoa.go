package core

import (
	"encoding/binary"
	"fmt"

	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/score"
	"pepscale/internal/topk"
)

// dbWindow is the RMA window name under which every rank exposes its
// resident database block.
const dbWindow = "db"

// loaded is the common outcome of the parallel loading step (paper steps
// A1/B1): this rank's database block, the global protein-index bases of
// every block, and the conditioned local query set.
type loaded struct {
	// blocks is the number of database blocks in this rank's universe
	// (p for Algorithms A/B; the group size for SubGroup).
	blocks int
	// myBlock is this rank's block index within the universe.
	myBlock int
	// myBytes is the raw FASTA image of the resident block Di.
	myBytes []byte
	// recs is the parsed resident block.
	recs []fasta.Record
	// bases[b] is the global protein index of block b's first record.
	bases []int32
	// qlo/qhi is the rank's query range in Input.Queries.
	qlo, qhi int
	// qs are the conditioned local queries; lists their top-τ accumulators.
	qs    []*score.Query
	lists []*topk.List
	// sc is the scoring model.
	sc score.Scorer
	// scan is the rank's persistent sweep state: buffers stay warm and the
	// per-query scoring caches survive across the blocks of the transport
	// loop (the query set is stable within a rank).
	scan scanState
	// cache is the host-side per-run index memoizer (may be nil).
	cache *indexCache
}

// loadPhase performs the balanced parallel load: block myBlock of a
// blocks-way record-aligned partition of the database file, plus this
// rank's 1/p share of the query file, with I/O and conditioning charged to
// the virtual clock. Global protein-index bases are agreed via an
// Allgather of per-rank record counts.
func loadPhase(r *cluster.Rank, in Input, opt Options, cache *indexCache, blocks, myBlock int) (*loaded, error) {
	return loadPhaseOpts(r, in, opt, cache, blocks, myBlock, true)
}

// loadPhaseOpts is loadPhase with query conditioning optional: the
// candidate-transport engine redistributes raw spectra by mass first and
// conditions them at their destination rank.
func loadPhaseOpts(r *cluster.Rank, in Input, opt Options, cache *indexCache, blocks, myBlock int, prepare bool) (*loaded, error) {
	cost := r.Cost()
	l := &loaded{blocks: blocks, myBlock: myBlock, cache: cache}

	ranges := cache.rangesFor(in.DBData, blocks)
	rg := ranges[myBlock]
	l.myBytes = in.DBData[rg.Start:rg.End]
	r.Compute(cost.IOSec(len(l.myBytes)))
	r.NoteAlloc(int64(len(l.myBytes)))
	recs, err := fasta.ParseRange(in.DBData, rg)
	if err != nil {
		return nil, fmt.Errorf("rank %d: load block %d: %w", r.ID(), myBlock, err)
	}
	l.recs = recs

	// Agree on global protein-index bases. Every rank contributes its own
	// record count; block b's count is taken from the first rank holding
	// block b (ranks of group 0 when blocks < p).
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(recs)))
	counts := r.Allgather(cnt[:])
	l.bases = make([]int32, blocks)
	var acc int32
	for b := 0; b < blocks; b++ {
		l.bases[b] = acc
		acc += int32(binary.LittleEndian.Uint64(counts[b]))
	}

	// Query loading: rank i receives roughly m/p queries.
	l.qlo, l.qhi = share(len(in.Queries), r.Size(), r.ID())
	mySpecs := in.Queries[l.qlo:l.qhi]
	qbytes := queryBytes(mySpecs)
	r.Compute(cost.IOSec(qbytes))
	r.NoteAlloc(int64(qbytes))
	if prepare {
		l.qs = prepareQueries(r, mySpecs, opt.Score)
		l.lists = make([]*topk.List, len(l.qs))
		for i := range l.lists {
			l.lists[i] = topk.New(opt.Tau)
		}
	}

	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return nil, err
	}
	l.sc = sc
	return l, nil
}

// processBlock digests a block into its mass index (memoized host-side per
// run, like the block's fragment index; the clock still charges each rank
// the digestion), scans all given queries against it, and charges the digestion, scoring, and reporting costs. key is the
// block's precomputed cache identity (see blockKey) — threading it through
// the transport loops avoids re-hashing every transported block's bytes on
// every iteration. It returns the candidate count.
func processBlock(r *cluster.Rank, l *loaded, opt Options, qs []*score.Query, lists []*topk.List, recs []fasta.Record, gids []int32, idOf func(int32) string, key cacheKey) (int64, error) {
	cost := r.Cost()
	if gids == nil {
		return 0, fmt.Errorf("processBlock: nil gids")
	}
	ix, ixBytes, err := l.cache.indexFor(key, recs, gids, opt.Digest)
	if err != nil {
		return 0, err
	}
	r.Compute(cost.DigestSecPerResidue * float64(fasta.TotalResidues(recs)))
	r.NoteAlloc(ixBytes)
	st := l.scan.scan(qs, lists, ix, l.cache.fragIndexFor(key, ix, opt), l.sc, opt, idOf)
	r.Compute(scanComputeSec(cost, l.sc, st))
	r.NoteFree(ixBytes)
	return st.Candidates, nil
}

// contiguousGIDs materializes base..base+n-1.
func contiguousGIDs(base int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = base + int32(i)
	}
	return out
}

// finishRun reports this rank's hit lists, gathers everything at rank 0,
// and records the per-rank counters in the host-side shared area. indices
// maps the rank's (possibly reordered) query slots back to their positions
// in Input.Queries.
func finishRun(r *cluster.Rank, l *loaded, sh *shared, indices []int, loadSec, sortSec float64, candidates int64) error {
	r.SetStep(-1)
	r.SetPhase("report")
	cost := r.Cost()
	results := finalizeResults(indices, l.qs, l.lists)
	var hits int
	for _, qr := range results {
		hits += len(qr.Hits)
	}
	r.Compute(cost.HitSecPerHit * float64(hits))
	gathered := r.Gather(0, encodeResults(results))
	if r.ID() == 0 {
		merged, err := mergeGathered(gathered, l.qhi-l.qlo)
		if err != nil {
			return err
		}
		sh.merged = merged
	}
	id := r.ID()
	sh.loadSec[id] = loadSec
	sh.sortSec[id] = sortSec
	sh.candidates[id] = candidates
	sh.queries[id] = len(l.qs)
	return nil
}

// algorithmABody is the paper's Algorithm A, per rank:
//
//	A1. Load block Di and the local query share Qi in parallel; expose Di.
//	A2. For s = 0 .. p−1: issue a non-blocking one-sided get for block
//	    (i+s+1) mod p (masking), generate candidates on the fly from the
//	    current block, score Qi against them while the transfer proceeds,
//	    then complete the get.
//	A3. Report the τ best hits per local query; gather at rank 0.
//
// With masking disabled the get is issued only after the current block has
// been fully processed (the paper's no-masking comparison version).
func algorithmABody(r *cluster.Rank, in Input, opt Options, masking bool, sh *shared) error {
	p, id := r.Size(), r.ID()
	t0 := r.Time()
	r.SetPhase("load")
	l, err := loadPhase(r, in, opt, sh.cache, p, id)
	if err != nil {
		return err
	}
	r.Expose(dbWindow, l.myBytes)
	r.Barrier()
	loadSec := r.Time() - t0
	r.SetPhase("scan")

	curRecs, curBase := l.recs, l.bases[id]
	curKey := blockKey(id, len(l.myBytes))
	var curAlloc int64 // transported Dcomp footprint (0 while scanning Di)
	var candidates int64
	for s := 0; s < p; s++ {
		r.SetStep(s)
		nextOwner := (id + s + 1) % p
		var pending *cluster.Pending
		if masking && s+1 < p {
			pending = r.Get(nextOwner, dbWindow)
		}
		c, err := processBlock(r, l, opt, l.qs, l.lists, curRecs, contiguousGIDs(curBase, len(curRecs)), blockIDResolver(curRecs, curBase), curKey)
		if err != nil {
			return err
		}
		candidates += c
		if s+1 < p {
			if !masking {
				pending = r.Get(nextOwner, dbWindow)
			}
			data, err := pending.Wait()
			if err != nil {
				return err
			}
			r.NoteAlloc(int64(len(data))) // Drecv materialized
			if curAlloc > 0 {
				r.NoteFree(curAlloc) // previous transported block released
			}
			curAlloc = int64(len(data))
			curKey = blockKey(nextOwner, len(data))
			curRecs, err = l.cache.recsFor(curKey, data)
			if err != nil {
				return fmt.Errorf("rank %d: block from rank %d: %w", id, nextOwner, err)
			}
			curBase = l.bases[nextOwner]
		}
	}
	if curAlloc > 0 {
		r.NoteFree(curAlloc)
	}
	return finishRun(r, l, sh, queryIndices(l.qlo, l.qhi), loadSec, 0, candidates)
}
