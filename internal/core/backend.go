// The serving backend: the resident-cluster substrate of the streaming
// search service (internal/serve), built from the same primitives as the
// checkpointed epoch engine (sweep.go).
//
// A Backend holds a database partitioned ONCE into p0 record-aligned blocks
// and keeps them resident on a long-lived virtual machine: Boot loads and
// exposes every member's owned blocks (placement.RoundRobin initially, the
// minimal-move incremental plan thereafter), Rotate migrates block windows
// between members at a membership change with RunElastic's block-migration
// step, and ScanBatch advances one in-flight query batch by a bounded number
// of block steps on its owner rank. Between Runs the machine idles —
// windows persist, per-rank clocks accumulate — which is what makes the
// service "always on": every dispatch starts with Rank.IdleUntil to the
// batch's dispatch instant, so service-time gaps are explicit intervals on
// the virtual timeline.
//
// A batch is a sweep, like one of RunElastic's query groups: batch b scans
// block (b+s) mod p0 at step s, so concurrent batches spread their remote
// fetches across owners. After each quantum its top-τ lists, cursor, and
// candidate count are checkpointed to the backend's stable store, and
// Invalidate re-stages a batch from its latest checkpoint after a crash,
// an owner loss, or an owner reassignment — the batch re-offers exactly the
// post-cursor blocks against lists that reflect exactly the pre-cursor
// blocks, so a membership event never changes a hit.
//
// Bit-identity with an offline batch run holds by the standard argument: a
// top-τ list is a pure function of its offer multiset (topk's strict total
// order breaks all ties), every query sees every block exactly once across
// quanta regardless of batching, owner, or block order, and the global
// protein index bases are a pure function of the p0-way partition.
package core

import (
	"fmt"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/placement"
	"pepscale/internal/spectrum"
)

// Backend is the serving layer's resident-cluster engine. All methods are
// host-side drivers (call them from one goroutine, between machine Runs);
// the rank programs they launch follow the per-rank ownership discipline of
// the batch engines.
type Backend struct {
	layout
	opt   Options
	p0    int
	pt    *partition
	store *ckpt.Store
	// migBytes[r] counts block-migration bytes fetched by rank r across
	// all rotations (each rank writes only its own slot during a Run).
	migBytes []int64
}

// NewBackend partitions the database into blocks record-aligned pieces and
// precomputes the partition-independent global protein-index bases. The
// returned backend has no placement yet: call Boot before the first scan.
func NewBackend(db []byte, opt Options, blocks int) (*Backend, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if blocks < 1 {
		return nil, fmt.Errorf("core: backend needs at least 1 block, got %d", blocks)
	}
	bk := &Backend{
		layout: layout{gen: make([]int32, blocks), bases: make([]int32, blocks)},
		opt:    opt,
		p0:     blocks,
		pt:     newPartition(db, blocks, newIndexCache()),
		store:  ckpt.NewStore(),
	}
	var acc int32
	for b := 0; b < blocks; b++ {
		raw := bk.pt.raw(b)
		recs, err := bk.pt.cache.recsFor(blockKey(b, len(raw)), raw)
		if err != nil {
			return nil, fmt.Errorf("core: backend block %d: %w", b, err)
		}
		bk.bases[b] = acc
		acc += int32(len(recs))
	}
	return bk, nil
}

// Blocks returns p0, the stable partition width.
func (bk *Backend) Blocks() int { return bk.p0 }

// Members returns the current placement's member list (nil before Boot).
func (bk *Backend) Members() []int {
	if bk.plan == nil {
		return nil
	}
	return append([]int(nil), bk.plan.Members...)
}

// CheckpointWrites and CheckpointBytes report the stable-store traffic of
// all batch checkpoints so far.
func (bk *Backend) CheckpointWrites() int64 { return bk.store.Writes() }

// CheckpointBytes is the companion byte counter of CheckpointWrites.
func (bk *Backend) CheckpointBytes() int64 { return bk.store.Bytes() }

// MigrationBytes returns the total block bytes moved by rotations.
func (bk *Backend) MigrationBytes() int64 {
	var total int64
	for _, b := range bk.migBytes {
		total += b
	}
	return total
}

// Boot (re)loads every member's owned blocks onto mach and exposes them
// under the current window generations. It is called once at service start
// and again after every machine loss (the replacement machine has no
// windows). On the first call the placement is the round-robin plan over
// members; later calls with a different member set advance it minimally.
func (bk *Backend) Boot(mach *cluster.Machine, members []int) (*cluster.RunReport, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: backend boot with no members")
	}
	if bk.plan == nil {
		plan, err := placement.RoundRobin(bk.p0, bk.p0, members)
		if err != nil {
			return nil, err
		}
		bk.plan = plan
	} else if !equalInts(bk.plan.Members, members) {
		next, err := bk.scr.Next(bk.plan, members)
		if err != nil {
			return nil, err
		}
		bk.plan = next
	}
	if bk.migBytes == nil {
		bk.migBytes = make([]int64, mach.Ranks())
	}
	plan := bk.plan
	rep := mach.RunWithReport(func(r *cluster.Rank) error {
		id := r.ID()
		mine := plan.BlocksOf(id)
		if len(mine) == 0 {
			return nil
		}
		r.SetPhase("load")
		_, err := bk.pt.load(r, mine, bk.gen)
		return err
	})
	return rep, nil
}

// Rotate moves the placement to newMembers on the LIVE machine: each
// migrating block's new owner fetches the raw window from the old owner
// (topology-aware RMA, counted as migration bytes) and re-exposes it under
// a bumped generation name. Group migrations in the plan are ignored — the
// serving layer owns batch-to-rank assignment itself. A no-op membership
// returns (nil, nil, nil).
func (bk *Backend) Rotate(mach *cluster.Machine, newMembers []int) (*cluster.RunReport, []placement.Migration, error) {
	if bk.plan == nil {
		return nil, nil, fmt.Errorf("core: backend rotate before boot")
	}
	if equalInts(bk.plan.Members, newMembers) {
		return nil, nil, nil
	}
	next, migs, err := bk.advance(newMembers)
	if err != nil {
		return nil, nil, err
	}
	// Rebalance moves each block at most once, so a migrating block's
	// pre-move generation is its bumped one minus one.
	for _, mg := range migs {
		if mg.Kind == placement.MigrateBlock {
			bk.gen[mg.ID]++
		}
	}
	bk.plan = next
	rep := mach.RunWithReport(func(r *cluster.Rank) error {
		for _, mg := range migs {
			if mg.Kind != placement.MigrateBlock {
				continue
			}
			if err := bk.pt.moveBlock(r, mg, bk.gen[mg.ID]-1, bk.migBytes); err != nil {
				return err
			}
		}
		return nil
	})
	return rep, migs, nil
}

// BatchState is one in-flight query batch: the streaming layer's unit of
// scheduling and the checkpoint store's unit of recovery. The host owns it
// between Runs; during a ScanBatch Run only the owner rank touches it.
type BatchState struct {
	sweep
	owner    int
	specs    []*spectrum.Spectrum
	prepared bool
	// restoreBlob stages a checkpoint decode into the next prepare (set by
	// Invalidate; the decode and its I/O charge happen on the owner rank).
	restoreBlob []byte

	done      bool
	doneClock float64
	results   []QueryResult
}

// NewBatch wraps a closed batch of query spectra for dispatch as batch id.
func NewBatch(id int32, specs []*spectrum.Spectrum) *BatchState {
	return &BatchState{sweep: sweep{id: id, unit: "batch"}, specs: specs}
}

// ID returns the batch identifier (the checkpoint-store key).
func (bs *BatchState) ID() int32 { return bs.id }

// Owner returns the rank currently assigned to drive the batch.
func (bs *BatchState) Owner() int { return bs.owner }

// SetOwner assigns the driving rank (host-side, between Runs).
func (bs *BatchState) SetOwner(owner int) { bs.owner = owner }

// Size returns the batch's query count.
func (bs *BatchState) Size() int { return len(bs.specs) }

// Cursor returns the next block step to scan (p0 when the sweep is done).
func (bs *BatchState) Cursor() int { return bs.cursor }

// Candidates returns the candidates scored so far.
func (bs *BatchState) Candidates() int64 { return bs.candidates }

// Done reports whether the batch has swept all blocks and finalized.
func (bs *BatchState) Done() bool { return bs.done }

// DoneClock returns the owner's machine-local clock at completion.
func (bs *BatchState) DoneClock() float64 { return bs.doneClock }

// Results returns the finalized per-query top-τ results (Index is the
// query's position within the batch).
func (bs *BatchState) Results() []QueryResult { return bs.results }

// Invalidate drops the batch's machine-bound state and stages a restore
// from its latest checkpoint (none: the batch rescans from block 0). Call
// after a machine loss or before reassigning the batch to a new owner —
// lists are rebuilt from the checkpoint, so no block is ever offered twice.
func (bk *Backend) Invalidate(bs *BatchState) {
	bs.prepared = false
	bs.qs, bs.lists = nil, nil
	bs.cursor, bs.candidates = 0, 0
	if blob, ok := bk.store.Get(bs.id); ok {
		bs.restoreBlob = blob
	} else {
		bs.restoreBlob = nil
	}
}

// ScanBatch advances bs by at most steps block scans on its owner rank,
// starting no earlier than the absolute machine-local time dispatchAt. The
// quantum checkpoints the batch on exit; a completed sweep finalizes the
// per-query results and stamps DoneClock.
func (bk *Backend) ScanBatch(mach *cluster.Machine, bs *BatchState, dispatchAt float64, steps int) (*cluster.RunReport, error) {
	if bk.plan == nil {
		return nil, fmt.Errorf("core: backend scan before boot")
	}
	if steps < 1 {
		steps = bk.p0
	}
	rep := mach.RunWithReport(func(r *cluster.Rank) error {
		if r.ID() != bs.owner {
			return nil
		}
		r.IdleUntil(dispatchAt)
		if !bs.prepared {
			r.SetPhase("ingest")
			bs.prepare(r, bs.specs, bk.opt)
			if bs.restoreBlob != nil {
				if err := bs.restore(r, bs.restoreBlob, bk.p0); err != nil {
					return err
				}
				bs.restoreBlob = nil
			}
			bs.prepared = true
		}
		shim, err := newShim(bk.opt, bk.pt)
		if err != nil {
			return err
		}
		r.SetPhase("scan")
		for n := 0; bs.cursor < bk.p0 && n < steps; n++ {
			r.SetStep(bs.cursor)
			if err := bs.visit(r, bk.pt, &bk.layout, shim, bk.opt, bs.cursor); err != nil {
				return err
			}
		}
		r.SetStep(-1)
		bs.checkpoint(r, bk.store)
		if bs.cursor == bk.p0 {
			r.SetPhase("report")
			bs.results = finalizeResults(queryIndices(0, len(bs.qs)), bs.qs, bs.lists)
			var hits int
			for _, qr := range bs.results {
				hits += len(qr.Hits)
			}
			r.Compute(r.Cost().HitSecPerHit * float64(hits))
			r.NoteFree(int64(queryBytes(bs.specs)))
			bs.done = true
			bs.doneClock = r.Time()
		}
		return nil
	})
	return rep, nil
}
