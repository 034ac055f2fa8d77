// The checkpointed sweep primitives shared by the elastic engine and the
// serving backend.
//
// Both run Algorithm A's schedule over a database partitioned ONCE into p0
// record-aligned blocks: a sweep — a query group of RunElastic or an
// in-flight pepd batch — offers block (id+s) mod p0 at step s, so the
// sweep→block schedule never depends on which rank drives it or how many
// ranks are live. A sweep's recovery state (top-τ lists, cursor, candidate
// count) round-trips through internal/ckpt, and block windows are named by
// migration generation so a block can move between owners on a live machine.
package core

import (
	"encoding/binary"
	"fmt"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/placement"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// partition is the stable p0-way block partition of a database, with the
// index cache every rank parses blocks through. It is immutable once built
// and shared by all ranks.
type partition struct {
	db     []byte
	ranges []fasta.Range
	cache  *indexCache
}

func newPartition(db []byte, p0 int) *partition {
	return &partition{db: db, ranges: fasta.Ranges(db, p0), cache: newIndexCache()}
}

// raw returns block b's FASTA bytes.
func (pt *partition) raw(b int) []byte {
	rg := pt.ranges[b]
	return pt.db[rg.Start:rg.End]
}

// load reads rank r's owned blocks (charged as I/O), parses them, and
// exposes each under its current window generation. It returns the blocks'
// record counts (little-endian uint64, in blocks order): a rank's share of
// the protein-index-base allgather.
func (pt *partition) load(r *cluster.Rank, blocks []int, gen []int32) ([]byte, error) {
	cost := r.Cost()
	counts := make([]byte, 8*len(blocks))
	for i, b := range blocks {
		raw := pt.raw(b)
		r.Compute(cost.IOSec(len(raw)))
		r.NoteAlloc(int64(len(raw)))
		recs, err := pt.cache.recsFor(blockKey(b, len(raw)), raw)
		if err != nil {
			return nil, fmt.Errorf("rank %d: load block %d: %w", r.ID(), b, err)
		}
		binary.LittleEndian.PutUint64(counts[8*i:], uint64(len(recs)))
		r.Expose(blockWinName(b, gen[b]), raw)
	}
	return counts, nil
}

// moveBlock applies block migration mg on rank r, the block's window being
// at generation gen: the new owner fetches it from the old owner (counted in
// migBytes), parses it, and re-exposes it at generation gen+1; the old owner
// frees its copy. Other ranks do nothing.
func (pt *partition) moveBlock(r *cluster.Rank, mg placement.Migration, gen int32, migBytes []int64) error {
	switch id := r.ID(); id {
	case mg.To:
		r.SetPhase("migrate")
		data, err := r.Get(mg.From, blockWinName(mg.ID, gen)).Wait()
		if err != nil {
			return err
		}
		r.NoteAlloc(int64(len(data)))
		if _, err := pt.cache.recsFor(blockKey(mg.ID, len(data)), data); err != nil {
			return fmt.Errorf("rank %d: migrate block %d: %w", id, mg.ID, err)
		}
		r.Expose(blockWinName(mg.ID, gen+1), data)
		migBytes[id] += int64(len(data))
	case mg.From:
		r.SetPhase("migrate")
		r.NoteFree(int64(len(pt.raw(mg.ID))))
	}
	return nil
}

// blockWinName names database block b's RMA window at migration generation
// gen. Windows are immutable and outlive rank bodies, so every migration
// re-exposes under a bumped generation: a rank re-acquiring a block on the
// same machine needs a fresh key.
func blockWinName(b int, gen int32) string {
	if gen == 0 {
		return fmt.Sprintf("db%d", b)
	}
	return fmt.Sprintf("db%d.g%d", b, gen)
}

// layout is where the blocks live: the placement, each block's window
// generation, and each block's global protein-index base. The elastic
// engine keeps one per rank (every member derives the same values); the
// serving backend keeps one host-side.
type layout struct {
	plan  *placement.Plan
	scr   placement.Scratch
	gen   []int32
	bases []int32
}

// advance computes the minimal-move plan over members and the migrations
// that realise it; the caller installs the plan once they are applied.
func (l *layout) advance(members []int) (*placement.Plan, []placement.Migration, error) {
	next, err := l.scr.Next(l.plan, members)
	if err != nil {
		return nil, nil, err
	}
	migs, err := placement.Rebalance(l.plan, next)
	if err != nil {
		return nil, nil, err
	}
	return next, migs, nil
}

// sweep is one query set's in-flight walk through the block schedule.
type sweep struct {
	id int32
	// unit names the sweep in trace marks and errors ("group", "batch").
	unit       string
	qs         []*score.Query
	lists      []*topk.List
	cursor     int // next step to scan; p0 when the sweep is done
	candidates int64
}

// queryBytes is the conditioned-query footprint estimate every engine
// charges at query load.
func queryBytes(specs []*spectrum.Spectrum) int {
	var n int
	for _, s := range specs {
		n += 64 + 12*len(s.Peaks)
	}
	return n
}

// prepare conditions specs as the sweep's queries (charged as I/O plus
// per-peak prep) with empty top-τ lists at step 0.
func (sw *sweep) prepare(r *cluster.Rank, specs []*spectrum.Spectrum, opt Options) {
	qbytes := queryBytes(specs)
	r.Compute(r.Cost().IOSec(qbytes))
	r.NoteAlloc(int64(qbytes))
	sw.qs = prepareQueries(r, specs, opt.Score)
	sw.lists = make([]*topk.List, len(sw.qs))
	for i := range sw.lists {
		sw.lists[i] = topk.New(opt.Tau)
	}
	sw.cursor, sw.candidates = 0, 0
}

// restore replays a checkpoint blob (its read charged as I/O) into freshly
// prepared lists. The lists then reflect exactly the pre-cursor blocks, so
// resuming at the cursor offers every block exactly once.
func (sw *sweep) restore(r *cluster.Rank, blob []byte, p0 int) error {
	r.Compute(r.Cost().IOSec(len(blob)))
	cp, err := ckpt.Decode(blob)
	if err != nil {
		return fmt.Errorf("rank %d: restore %s %d: %w", r.ID(), sw.unit, sw.id, err)
	}
	if cp.Group != sw.id || len(cp.Queries) != len(sw.qs) || int(cp.Cursor) > p0 {
		return fmt.Errorf("rank %d: restore %s %d: checkpoint shape mismatch", r.ID(), sw.unit, sw.id)
	}
	for i := range cp.Queries {
		for _, h := range cp.Queries[i].Hits {
			sw.lists[i].Offer(h)
		}
	}
	sw.cursor = int(cp.Cursor)
	sw.candidates = cp.Candidates
	if r.Tracing() {
		r.Mark("restore", fmt.Sprintf("%s %d resumes at step %d", sw.unit, sw.id, sw.cursor))
	}
	return nil
}

// checkpoint writes the sweep's recovery state to the stable store, charging
// the write as I/O under the "checkpoint" phase.
func (sw *sweep) checkpoint(r *cluster.Rank, store *ckpt.Store) {
	cp := ckpt.Group{Group: sw.id, Cursor: int32(sw.cursor), Candidates: sw.candidates}
	cp.Queries = make([]ckpt.Query, len(sw.lists))
	for i, l := range sw.lists {
		cp.Queries[i] = ckpt.Query{Hits: l.Hits()}
	}
	blob := cp.Encode()
	store.Put(sw.id, blob)
	r.SetPhase("checkpoint")
	if r.Tracing() {
		r.Mark("checkpoint", fmt.Sprintf("%s %d at step %d (%d bytes)", sw.unit, sw.id, sw.cursor, len(blob)))
	}
	r.Compute(r.Cost().IOSec(len(blob)))
	r.SetPhase("scan")
}

// visit scans step s's block, (id+s) mod p0, against every query and
// advances the cursor past it. An owned block is read in place; any other
// arrives by a one-sided get of its current window and is freed after the
// scan.
func (sw *sweep) visit(r *cluster.Rank, pt *partition, l *layout, shim *loaded, opt Options, s int) error {
	b := (int(sw.id) + s) % len(pt.ranges)
	var data []byte
	var alloc int64
	if owner := l.plan.BlockRank(b); owner == r.ID() {
		data = pt.raw(b)
	} else {
		var err error
		if data, err = r.Get(owner, blockWinName(b, l.gen[b])).Wait(); err != nil {
			return err
		}
		alloc = int64(len(data))
		r.NoteAlloc(alloc)
	}
	key := blockKey(b, len(data))
	recs, err := pt.cache.recsFor(key, data)
	if err != nil {
		return fmt.Errorf("rank %d: block %d: %w", r.ID(), b, err)
	}
	c, err := processBlock(r, shim, opt, sw.qs, sw.lists, recs, contiguousGIDs(l.bases[b], len(recs)), blockIDResolver(recs, l.bases[b]), key)
	if err != nil {
		return err
	}
	sw.candidates += c
	if alloc > 0 {
		r.NoteFree(alloc)
	}
	sw.cursor = s + 1
	return nil
}
