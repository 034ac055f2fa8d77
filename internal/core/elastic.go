// The checkpointed epoch engine: Algorithm A's block-cycled scan with epoch
// checkpoint/restart, over a static or LIVE membership — ranks join and
// leave a running machine at scheduled virtual times, with ownership
// rebalanced through the placement layer and the final hits bit-identical
// to a static run. A nil MembershipPlan is the static case, the engine's
// plain fault-tolerant search; EpochSteps ≥ p0 runs it checkpoint-free.
//
// The database is partitioned once into p0 record-aligned blocks and the
// queries into p0 groups, p0 = MembershipPlan.Initial (sweep.go). A
// placement.Plan maps both onto the current membership; the initial plan is
// the round-robin partition (block b and group g on members b mod p and
// g mod p), and every membership change advances it with placement.Next,
// which moves only the minimal orphaned-or-over-quota set.
//
// The scan is step-major: at global step s every owned group g offers block
// (g+s) mod p0, so all groups share one cursor and the per-group offer
// order is exactly the static schedule. Blocks are fetched on demand, with
// no prefetch. Every EpochSteps steps the engine reaches an epoch boundary:
//
//  1. every member checkpoints its owned groups (cursor = s) to the
//     host-side stable store, each write charged as I/O;
//  2. the members agree on the boundary's virtual time with an OpMax
//     allreduce over timeBase + local clock — the agreed time, not any
//     local clock, decides which membership events fire, so the firing
//     step is a pure function of the virtual execution;
//  3. fired events produce the new member set; every rank recomputes the
//     incremental plan locally (placement is deterministic, so no
//     coordinator state exists);
//  4. the lowest old member admits each joiner, handing it the boundary
//     state (step, event cursor, protein-index bases, window generations,
//     and the pre-change plan) as a charged point-to-point payload;
//  5. migrations execute: a block's new owner fetches the raw window from
//     the old owner under the "migrate" phase (topology-aware RMA, counted
//     as MigrationBytes) and re-exposes it under a bumped generation name;
//     a group's new owner restores the boundary checkpoint from the stable
//     store; then old and new members synchronize on their union and
//     leavers park back in AwaitAdmission, re-admittable at later events.
//
// Bit-identity with the static run holds because a top-τ list is a pure
// function of its offer multiset (topk's strict total order breaks all
// ties), each group's offers stay s-ascending across any join/leave history
// (checkpoints reflect exactly the pre-cursor blocks), and the group→block
// schedule never depends on placement. A crash (cluster.RunReport
// .Recoverable) aborts the attempt and the driver replays the membership
// schedule without the dead ranks on a fresh machine, resuming every group
// from its last checkpoint. Resident memory stays O(N/p′): a member holds
// its owned blocks plus one transported block.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pepscale/internal/binfmt"
	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/placement"
	"pepscale/internal/score"
	"pepscale/internal/trace"
)

// ElasticOptions configures the elastic driver.
type ElasticOptions struct {
	// Membership is the join/leave schedule. Nil runs a static membership
	// over cfg.Ranks (Universe = Initial = cfg.Ranks, no events).
	Membership *cluster.MembershipPlan
	// EpochSteps is the number of scan steps between epoch boundaries
	// (default 1: events can fire before every step). EpochSteps ≥ p0
	// never reaches a boundary: the run writes no checkpoint, a crash
	// restarts every group from step 0, and membership events never fire.
	EpochSteps int
	// MaxAttempts bounds driver re-runs after crashes (default: the
	// universe size).
	MaxAttempts int
	// Faults[a] is the fault schedule injected into attempt a.
	Faults []*cluster.FaultPlan
}

// elasticSchedule is one attempt's immutable replay input.
type elasticSchedule struct {
	pt       *partition
	p0       int
	epoch    int
	initial  []int
	events   []cluster.MemberEvent
	timeBase float64
}

// RunElastic executes the membership-elastic search. The returned metrics
// describe the successful attempt (RunSec accumulating failed attempts'
// virtual time); Recovery details every attempt and the checkpoint traffic.
func RunElastic(cfg cluster.Config, in Input, opt Options, eopt ElasticOptions) (*Result, *Recovery, error) {
	return runElastic(cfg, in, opt, eopt, newIndexCache())
}

// runElastic is RunElastic with the caller's index cache, which every
// attempt's ranks share.
func runElastic(cfg cluster.Config, in Input, opt Options, eopt ElasticOptions, cache *indexCache) (*Result, *Recovery, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	mp := eopt.Membership
	if mp == nil {
		if cfg.Ranks < 1 {
			return nil, nil, fmt.Errorf("core: need at least 1 rank, got %d", cfg.Ranks)
		}
		mp = &cluster.MembershipPlan{Universe: cfg.Ranks, Initial: cfg.Ranks}
	}
	if err := mp.Validate(); err != nil {
		return nil, nil, err
	}
	epoch := eopt.EpochSteps
	if epoch < 1 {
		epoch = 1
	}
	p0 := mp.Initial
	maxAttempts := eopt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = mp.Universe
	}
	store := ckpt.NewStore()
	pt := newPartition(in.DBData, p0, cache)
	rec := &Recovery{}
	dead := make(map[int]bool)
	var timeBase float64
	var atts []*trace.Attempt
	for attempt := 0; ; attempt++ {
		initial := filterRanks(mp.InitialMembers(), dead)
		if len(initial) == 0 {
			// The whole starting roster died across attempts: restart on the
			// lowest surviving universe rank (placement is indifferent).
			for id := 0; id < mp.Universe; id++ {
				if !dead[id] {
					initial = []int{id}
					break
				}
			}
		}
		if len(initial) == 0 {
			return nil, rec, fmt.Errorf("core: all %d ranks failed", mp.Universe)
		}
		es := &elasticSchedule{pt: pt, p0: p0, epoch: epoch, initial: initial,
			events: filterEvents(mp.Events, dead), timeBase: timeBase}
		c := cfg
		c.Ranks = mp.Universe
		c.Members = initial
		c.Fault = nil
		if attempt < len(eopt.Faults) {
			c.Fault = eopt.Faults[attempt]
		}
		mach, err := cluster.New(c)
		if err != nil {
			return nil, rec, err
		}
		sh := newShared(mp.Universe)
		rep := mach.RunWithReport(func(r *cluster.Rank) error {
			return elasticBody(r, in, opt, es, store, sh)
		})
		rec.Attempts = append(rec.Attempts, RecoveryAttempt{
			Ranks:       len(initial),
			Err:         rep.Err,
			FailedRanks: rep.FailedRanks,
			RunSec:      mach.MaxTime(),
		})
		rec.CheckpointWrites = store.Writes()
		rec.CheckpointBytes = store.Bytes()
		if att := mach.Trace(fmt.Sprintf("attempt %d: elastic p0=%d", attempt, len(initial))); att != nil {
			atts = append(atts, att)
		}
		if rep.OK() {
			metrics := buildMetrics("elastic", mach, sh.loadSec, sh.sortSec, sh.candidates, sh.queries)
			metrics.RunSec += timeBase
			for i := range metrics.PerRank {
				metrics.PerRank[i].MigrationBytes = sh.migBytes[i]
			}
			for _, qr := range sh.merged {
				metrics.Hits += int64(len(qr.Hits))
			}
			res := &Result{Queries: sh.merged, Metrics: metrics}
			if len(atts) > 0 {
				res.Trace = &trace.Trace{Attempts: atts}
			}
			return res, rec, nil
		}
		if !rep.Recoverable() {
			return nil, rec, rep.Err
		}
		if attempt+1 >= maxAttempts {
			return nil, rec, fmt.Errorf("core: giving up after %d attempts: %w", attempt+1, rep.Err)
		}
		for _, f := range rep.FailedRanks {
			dead[f] = true
		}
		timeBase += mach.MaxTime()
	}
}

// filterRanks drops dead ranks from an ascending list.
func filterRanks(ids []int, dead map[int]bool) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if !dead[id] {
			out = append(out, id)
		}
	}
	return out
}

// filterEvents removes dead ranks from a schedule, dropping events it
// empties: a rank that crashed is neither preemptible nor re-admittable.
func filterEvents(events []cluster.MemberEvent, dead map[int]bool) []cluster.MemberEvent {
	out := make([]cluster.MemberEvent, 0, len(events))
	for _, ev := range events {
		f := cluster.MemberEvent{TimeSec: ev.TimeSec}
		for _, j := range ev.Join {
			if !dead[j] {
				f.Join = append(f.Join, j)
			}
		}
		for _, l := range ev.Leave {
			if !dead[l] {
				f.Leave = append(f.Leave, l)
			}
		}
		if len(f.Join) > 0 || len(f.Leave) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// elasticState is one rank's live view of the elastic run. Every field is
// recomputed deterministically from the schedule (or received once in the
// admission payload), so all members always agree on plan, generations, and
// event cursor without exchanging any further coordination state.
type elasticState struct {
	layout
	eventIdx int
	s        int // next scan step
	nextB    int // next epoch-boundary step
	groups   map[int]*rgroup
	shim     *loaded
	loadT    float64
}

// rgroup is one query group's in-flight sweep on its driving rank, covering
// queries [qlo, qhi).
type rgroup struct {
	sweep
	qlo, qhi int
}

// elasticBody is one rank's program for one attempt: initially-active ranks
// run the search from step 0; dormant ranks park until admitted (possibly
// repeatedly — a graceful leaver parks again) or released.
func elasticBody(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared) error {
	active := containsInt(es.initial, r.ID())
	for {
		var st *elasticState
		var err error
		if active {
			st, err = elasticStart(r, in, opt, es, store)
		} else {
			payload, ok := r.AwaitAdmission()
			if !ok {
				return nil
			}
			st, err = elasticJoin(r, in, opt, es, store, sh, payload)
		}
		if err != nil {
			return err
		}
		departed, err := elasticMain(r, in, opt, es, store, sh, st)
		if err != nil {
			return err
		}
		if !departed {
			return nil
		}
		active = false
	}
}

// elasticStart boots an initially-active rank: load and expose the owned
// blocks of the round-robin plan, agree on protein-index bases over the
// initial membership's communicator, and build/restore the owned groups.
func elasticStart(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store) (*elasticState, error) {
	id := r.ID()
	t0 := r.Time()
	r.SetPhase("load")
	plan, err := placement.RoundRobin(es.p0, es.p0, es.initial)
	if err != nil {
		return nil, err
	}
	st := &elasticState{layout: layout{plan: plan, gen: make([]int32, es.p0)},
		nextB: es.epoch, groups: make(map[int]*rgroup)}
	payload, err := es.pt.load(r, plan.BlocksOf(id), st.gen)
	if err != nil {
		return nil, err
	}

	// Protein-index bases over the initial membership only — the world
	// communicator is off-limits: dormant ranks are parked and must never
	// be awaited.
	comm := r.Group(es.initial)
	counts := comm.Allgather(payload)
	nrecs := make([]int32, es.p0)
	for j, buf := range counts {
		for k, b := range plan.BlocksOf(es.initial[j]) {
			nrecs[b] = int32(binary.LittleEndian.Uint64(buf[8*k:]))
		}
	}
	st.bases = make([]int32, es.p0)
	var acc int32
	for b := 0; b < es.p0; b++ {
		st.bases[b] = acc
		acc += nrecs[b]
	}

	if st.shim, err = newShim(opt, es.pt); err != nil {
		return nil, err
	}
	for _, g := range plan.GroupsOf(id) {
		gr, err := loadGroup(r, in, opt, es.p0, store, g)
		if err != nil {
			return nil, err
		}
		st.groups[g] = gr
	}
	comm.Barrier() // all initial windows exposed
	st.loadT = r.Time() - t0
	return st, nil
}

// newShim builds the per-rank scan state processBlock carries: the scorer
// and the shared index cache.
func newShim(opt Options, pt *partition) (*loaded, error) {
	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return nil, err
	}
	return &loaded{sc: sc, cache: pt.cache}, nil
}

// loadGroup builds query group g, restoring its cursor state from the
// stable store when a checkpoint exists.
func loadGroup(r *cluster.Rank, in Input, opt Options, p0 int, store *ckpt.Store, g int) (*rgroup, error) {
	qlo, qhi := share(len(in.Queries), p0, g)
	gr := &rgroup{sweep: sweep{id: int32(g), unit: "group"}, qlo: qlo, qhi: qhi}
	gr.prepare(r, in.Queries[qlo:qhi], opt)
	if blob, ok := store.Get(int32(g)); ok {
		if err := gr.restore(r, blob, p0); err != nil {
			return nil, err
		}
	}
	return gr, nil
}

// elasticMain runs the step-major scan from st.s, handling epoch boundaries
// (checkpoint, agreed-time event firing, admissions, migrations) until the
// sweep completes or this rank leaves the membership. It returns
// departed=true when the rank left gracefully and should park again.
func elasticMain(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared, st *elasticState) (bool, error) {
	id := r.ID()
	r.SetPhase("scan")
	for ; st.s < es.p0; st.s++ {
		if st.s == st.nextB {
			st.nextB += es.epoch
			departed, err := elasticBoundary(r, in, opt, es, store, sh, st)
			if err != nil {
				return false, err
			}
			if departed {
				return true, nil
			}
		}
		s := st.s
		r.SetStep(s)
		for _, g := range sortedGroupIDs(st.groups) {
			gr := st.groups[g]
			if s < gr.cursor || len(gr.qs) == 0 {
				continue
			}
			if err := gr.visit(r, es.pt, &st.layout, st.shim, opt, s); err != nil {
				return false, err
			}
		}
	}
	r.SetStep(-1)
	r.SetPhase("report")

	// Report over the final membership; the lowest member merges and then
	// releases every parked rank so the machine can complete.
	var results []QueryResult
	var totalCand int64
	var nq int
	for _, g := range sortedGroupIDs(st.groups) {
		gr := st.groups[g]
		results = append(results, finalizeResults(queryIndices(gr.qlo, gr.qhi), gr.qs, gr.lists)...)
		totalCand += gr.candidates
		nq += len(gr.qs)
	}
	var hits int
	for _, qr := range results {
		hits += len(qr.Hits)
	}
	r.Compute(r.Cost().HitSecPerHit * float64(hits))
	comm := r.Group(st.plan.Members)
	gathered := comm.Gather(0, encodeResults(results))
	if comm.Index() == 0 {
		merged, err := mergeGathered(gathered, len(in.Queries))
		if err != nil {
			return false, err
		}
		sh.merged = merged
		for rank := 0; rank < r.Size(); rank++ {
			if !st.plan.IsMember(rank) {
				r.Release(rank)
			}
		}
	}
	sh.loadSec[id] = st.loadT
	sh.candidates[id] = totalCand
	sh.queries[id] = nq
	return false, nil
}

// elasticBoundary handles one epoch boundary on an active member.
func elasticBoundary(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared, st *elasticState) (bool, error) {
	// 1. Checkpoint every owned group at the shared cursor, so any group
	// that migrates (or any crash) resumes exactly here.
	for _, g := range sortedGroupIDs(st.groups) {
		st.groups[g].checkpoint(r, store)
	}
	// 2. Agree on the boundary's virtual time; fire every event it reaches.
	comm := r.Group(st.plan.Members)
	told := comm.AllreduceFloat64(cluster.OpMax, es.timeBase+r.Time())
	newMembers := st.plan.Members
	for st.eventIdx < len(es.events) && es.events[st.eventIdx].TimeSec <= told {
		newMembers = applyEvent(newMembers, es.events[st.eventIdx])
		st.eventIdx++
	}
	if equalInts(newMembers, st.plan.Members) {
		return false, nil
	}
	r.SetPhase("migrate")
	// 3-4. The lowest current member admits each joiner, handing it the
	// boundary state it cannot otherwise reconstruct.
	if st.plan.Members[0] == r.ID() {
		for _, j := range diffSorted(newMembers, st.plan.Members) {
			r.Admit(j, encodeAdmission(st, newMembers, es.p0))
		}
	}
	return elasticApply(r, in, opt, es, store, sh, st, newMembers)
}

// elasticApply runs the post-agreement tail of a boundary — plan advance,
// migrations, union synchronization, departure — identically on continuing
// members and joiners.
func elasticApply(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared, st *elasticState, newMembers []int) (bool, error) {
	id := r.ID()
	r.SetPhase("migrate")
	next, migs, err := st.advance(newMembers)
	if err != nil {
		return false, err
	}
	for _, mg := range migs {
		switch mg.Kind {
		case placement.MigrateBlock:
			if err := es.pt.moveBlock(r, mg, st.gen[mg.ID], sh.migBytes); err != nil {
				return false, err
			}
			st.gen[mg.ID]++
		case placement.MigrateGroup:
			if mg.To == id {
				gr, err := loadGroup(r, in, opt, es.p0, store, mg.ID)
				if err != nil {
					return false, err
				}
				st.groups[mg.ID] = gr
			} else if mg.From == id {
				delete(st.groups, mg.ID)
			}
		}
	}
	// Old and new members synchronize on their union: every migration
	// source stays responsive until every fetch of this boundary is done,
	// and no joiner can race ahead of the membership it joined. A leaver
	// announces its departure before the barrier, so a later boundary's
	// Admit of it, which can only follow the barrier, waits for the Depart.
	leaving := !next.IsMember(id)
	if leaving {
		r.AnnounceDeparture()
	}
	union := unionSorted(st.plan.Members, newMembers)
	r.Group(union).Barrier()
	st.plan = next
	r.SetPhase("scan")
	if leaving {
		r.Depart()
		return true, nil
	}
	return false, nil
}

// elasticJoin boots a rank admitted at an epoch boundary from the admission
// payload, then runs the same boundary tail as the continuing members.
func elasticJoin(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared, payload []byte) (*elasticState, error) {
	t0 := r.Time()
	ad, err := decodeAdmission(payload, es.p0)
	if err != nil {
		return nil, fmt.Errorf("rank %d: admission payload: %w", r.ID(), err)
	}
	prev := &placement.Plan{Blocks: es.p0, Groups: es.p0, Members: ad.oldMembers,
		BlockOwner: ad.blockOwner, GroupOwner: ad.groupOwner}
	st := &elasticState{layout: layout{plan: prev, gen: ad.gen, bases: ad.bases},
		eventIdx: ad.eventIdx, s: ad.step, nextB: ad.step + es.epoch, groups: make(map[int]*rgroup)}
	if st.shim, err = newShim(opt, es.pt); err != nil {
		return nil, err
	}
	departed, err := elasticApply(r, in, opt, es, store, sh, st, ad.newMembers)
	if err != nil {
		return nil, err
	}
	if departed {
		return nil, fmt.Errorf("rank %d: departed at its own admission boundary", r.ID())
	}
	st.loadT = r.Time() - t0
	return st, nil
}

// applyEvent applies one membership event to an ascending member list,
// tolerantly: leaves of non-members (or of the last member) and joins of
// members are skipped, so a driver-filtered schedule can never corrupt the
// set. Leaves apply before joins, matching MembershipPlan.Validate.
func applyEvent(members []int, ev cluster.MemberEvent) []int {
	out := append([]int(nil), members...)
	for _, l := range ev.Leave {
		if len(out) <= 1 {
			break
		}
		if i := sort.SearchInts(out, l); i < len(out) && out[i] == l {
			out = append(out[:i], out[i+1:]...)
		}
	}
	for _, j := range ev.Join {
		if i := sort.SearchInts(out, j); i == len(out) || out[i] != j {
			out = append(out, 0)
			copy(out[i+1:], out[i:])
			out[i] = j
		}
	}
	return out
}

// admission is the decoded boundary hand-off for a joiner.
type admission struct {
	step       int
	eventIdx   int
	oldMembers []int
	newMembers []int
	bases      []int32
	gen        []int32
	blockOwner []int
	groupOwner []int
}

// encodeAdmission serializes the boundary state a joiner needs: the step
// and event cursors, the pre-change membership and plan (from which the
// joiner recomputes the new plan exactly like everyone else), the agreed
// new membership, the protein-index bases, and the window generations.
func encodeAdmission(st *elasticState, newMembers []int, p0 int) []byte {
	out := make([]byte, 0, 16+4*(len(st.plan.Members)+len(newMembers)+4*p0))
	out = binfmt.U32(out, uint32(st.s))
	out = binfmt.U32(out, uint32(st.eventIdx))
	out = binfmt.Ints(out, st.plan.Members)
	out = binfmt.Ints(out, newMembers)
	for _, v := range st.bases {
		out = binfmt.U32(out, uint32(v))
	}
	for _, v := range st.gen {
		out = binfmt.U32(out, uint32(v))
	}
	out = binfmt.Ints(out, st.plan.BlockOwner)
	return binfmt.Ints(out, st.plan.GroupOwner)
}

// decodeAdmission parses an admission payload (trusted intra-run data; the
// checks below catch engine bugs, not adversarial input).
func decodeAdmission(data []byte, p0 int) (*admission, error) {
	r := binfmt.NewReader(data, errWire)
	ad := &admission{step: int(r.U32()), eventIdx: int(r.U32()), oldMembers: r.Ints(), newMembers: r.Ints(),
		bases: make([]int32, p0), gen: make([]int32, p0)}
	for i := range ad.bases {
		ad.bases[i] = r.I32()
	}
	for i := range ad.gen {
		ad.gen[i] = r.I32()
	}
	ad.blockOwner, ad.groupOwner = r.Ints(), r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(ad.blockOwner) != p0 || len(ad.groupOwner) != p0 {
		return nil, fmt.Errorf("%w: admission owner tables sized %d/%d, want %d", errWire, len(ad.blockOwner), len(ad.groupOwner), p0)
	}
	return ad, nil
}

// sortedGroupIDs returns the map's keys ascending — the deterministic
// iteration order every per-rank group walk uses.
func sortedGroupIDs(groups map[int]*rgroup) []int {
	out := make([]int, 0, len(groups))
	//pepvet:allow determinism keys are sorted immediately below; no iteration order escapes
	for g := range groups {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

func containsInt(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

// diffSorted returns the elements of a not present in b (both ascending).
func diffSorted(a, b []int) []int {
	var out []int
	for _, v := range a {
		if !containsInt(b, v) {
			out = append(out, v)
		}
	}
	return out
}

// unionSorted merges two ascending lists.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
