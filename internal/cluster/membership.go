// Live membership for the virtual machine: seeded join/leave schedules and
// the admission primitives that bring dormant ranks into a running Machine.
//
// A machine is created over its full rank universe — every rank id that can
// ever participate — with Config.Members naming the initially active subset.
// Dormant ranks run their bodies like any other rank but immediately park in
// AwaitAdmission, costing nothing on the virtual clock until an active rank
// Admits them (delivering a state hand-off payload whose transfer is charged
// like any point-to-point message, so a joiner's clock starts at the
// admission's arrival time) or Releases them (run over, never needed). A
// rank that leaves gracefully simply parks again, so the same id can rejoin
// later in the run.
//
// MembershipPlan is the deterministic schedule format: a sorted event list
// of virtual-time-stamped join/leave batches over the universe, with seeded
// generators for the two production profiles (spot-instance churn and
// autoscaling ramps) and a canonical binary codec so schedules can be
// stored, diffed, and fuzzed like the other wire formats of the repo.
// Engines fire events at their own synchronization boundaries: an event
// with TimeSec t applies at the first boundary whose collectively agreed
// virtual time reaches t, which keeps the firing step a pure function of
// the virtual execution.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pepscale/internal/binfmt"
)

// MemberEvent is one batch of membership changes, applied atomically at the
// first engine boundary whose agreed virtual time is ≥ TimeSec. Join and
// Leave are strictly ascending and disjoint.
type MemberEvent struct {
	TimeSec float64
	Join    []int
	Leave   []int
}

// MembershipPlan is a deterministic join/leave schedule over a fixed rank
// universe. Ranks [0, Initial) are active at time 0; Events apply in order.
type MembershipPlan struct {
	// Universe is the machine size: every rank id ever used lies in
	// [0, Universe).
	Universe int
	// Initial is the initially active rank count (ranks 0..Initial-1).
	Initial int
	// Events is the schedule, ascending by TimeSec.
	Events []MemberEvent
}

// InitialMembers returns the ascending initially active rank ids.
func (mp *MembershipPlan) InitialMembers() []int {
	out := make([]int, mp.Initial)
	for i := range out {
		out[i] = i
	}
	return out
}

// Validate simulates the schedule and reports the first inconsistency:
// out-of-range or duplicate ids, joins of active ranks, leaves of inactive
// ranks, a step that empties the membership, non-monotonic times, or
// non-canonical (unsorted) event lists.
func (mp *MembershipPlan) Validate() error {
	if mp == nil {
		return nil
	}
	if mp.Universe < 1 {
		return fmt.Errorf("cluster: MembershipPlan.Universe %d < 1", mp.Universe)
	}
	if mp.Initial < 1 || mp.Initial > mp.Universe {
		return fmt.Errorf("cluster: MembershipPlan.Initial %d outside [1,%d]", mp.Initial, mp.Universe)
	}
	active := make([]bool, mp.Universe)
	n := mp.Initial
	for i := 0; i < mp.Initial; i++ {
		active[i] = true
	}
	prev := 0.0
	for ei, ev := range mp.Events {
		if math.IsNaN(ev.TimeSec) || math.IsInf(ev.TimeSec, 0) || ev.TimeSec < 0 {
			return fmt.Errorf("cluster: event %d: invalid time %v", ei, ev.TimeSec)
		}
		if ev.TimeSec < prev {
			return fmt.Errorf("cluster: event %d: time %v before predecessor %v", ei, ev.TimeSec, prev)
		}
		prev = ev.TimeSec
		if len(ev.Join) == 0 && len(ev.Leave) == 0 {
			return fmt.Errorf("cluster: event %d: empty", ei)
		}
		if !sort.IntsAreSorted(ev.Join) || !sort.IntsAreSorted(ev.Leave) {
			return fmt.Errorf("cluster: event %d: join/leave lists must be ascending", ei)
		}
		for _, r := range ev.Leave {
			if r < 0 || r >= mp.Universe {
				return fmt.Errorf("cluster: event %d: leave rank %d outside [0,%d)", ei, r, mp.Universe)
			}
			if !active[r] {
				return fmt.Errorf("cluster: event %d: leave of inactive rank %d", ei, r)
			}
			active[r] = false
			n--
		}
		for i, r := range ev.Join {
			if r < 0 || r >= mp.Universe {
				return fmt.Errorf("cluster: event %d: join rank %d outside [0,%d)", ei, r, mp.Universe)
			}
			if i > 0 && r == ev.Join[i-1] {
				return fmt.Errorf("cluster: event %d: duplicate join rank %d", ei, r)
			}
			if active[r] {
				return fmt.Errorf("cluster: event %d: join of already-active rank %d", ei, r)
			}
			active[r] = true
			n++
		}
		if n < 1 {
			return fmt.Errorf("cluster: event %d: membership would become empty", ei)
		}
	}
	return nil
}

// SpotMembershipPlan generates the spot-instance churn profile: `cycles`
// preemption events spread over [0, horizonSec), each replacing one random
// active rank with one random dormant rank (the preempted instance's
// capacity comes back as a fresh node; preempted ids may themselves return
// in later cycles). The schedule is a pure function of the arguments.
func SpotMembershipPlan(p0, spares, cycles int, horizonSec float64, seed int64) *MembershipPlan {
	mp := &MembershipPlan{Universe: p0 + spares, Initial: p0}
	rng := rand.New(rand.NewSource(seed*7654321 + 13))
	active := make([]int, p0)
	for i := range active {
		active[i] = i
	}
	dormant := make([]int, spares)
	for i := range dormant {
		dormant[i] = p0 + i
	}
	times := make([]float64, cycles)
	for i := range times {
		times[i] = horizonSec * rng.Float64()
	}
	sort.Float64s(times)
	for _, t := range times {
		ev := MemberEvent{TimeSec: t}
		if len(active) > 1 {
			i := rng.Intn(len(active))
			ev.Leave = []int{active[i]}
			active = append(active[:i], active[i+1:]...)
		}
		if len(dormant) > 0 {
			j := rng.Intn(len(dormant))
			ev.Join = []int{dormant[j]}
			dormant = append(dormant[:j], dormant[j+1:]...)
		}
		if len(ev.Join) == 0 && len(ev.Leave) == 0 {
			continue
		}
		// The joiner is preemptible from now on; the preempted id becomes
		// re-admittable spare capacity.
		active = append(active, ev.Join...)
		dormant = append(dormant, ev.Leave...)
		mp.Events = append(mp.Events, ev)
	}
	return mp
}

// AutoscaleMembershipPlan generates the autoscaling profile: the membership
// ramps from p0 up to p0+spares one join per event over the first half of
// [0, horizonSec), then drains back down to p0, last-joined first. The
// schedule is a pure function of the arguments.
func AutoscaleMembershipPlan(p0, spares int, horizonSec float64, seed int64) *MembershipPlan {
	mp := &MembershipPlan{Universe: p0 + spares, Initial: p0}
	rng := rand.New(rand.NewSource(seed*2718281 + 7))
	up := make([]float64, spares)
	down := make([]float64, spares)
	for i := range up {
		up[i] = horizonSec / 2 * rng.Float64()
		down[i] = horizonSec/2 + horizonSec/2*rng.Float64()
	}
	sort.Float64s(up)
	sort.Float64s(down)
	for i := 0; i < spares; i++ {
		mp.Events = append(mp.Events, MemberEvent{TimeSec: up[i], Join: []int{p0 + i}})
	}
	for i := 0; i < spares; i++ {
		// Drain in reverse join order so every leave targets an active rank.
		mp.Events = append(mp.Events, MemberEvent{TimeSec: down[i], Leave: []int{p0 + spares - 1 - i}})
	}
	return mp
}

// Binary codec for membership schedules, on internal/binfmt. The format is
// canonical: a blob is accepted only if Decode(blob) re-encodes to exactly
// blob, which the fuzz target enforces (see membership_fuzz_test.go).
const (
	membershipMagic   = uint32(0x504d4252) // "RBMP" little-endian on the wire
	membershipVersion = uint16(1)
	// maxPlanCount bounds the universe and the event count; Validate
	// bounds the initial count and every rank list by the universe.
	maxPlanCount = 1 << 24
	// minEventBytes is an event with empty join and leave lists.
	minEventBytes = 8 + 4 + 4
)

// errMembership reports a membership blob that fails structural or
// semantic validation.
var errMembership = errors.New("cluster: corrupt membership blob")

// EncodeMembershipPlan serializes the plan into the canonical little-endian
// binary form.
func EncodeMembershipPlan(mp *MembershipPlan) []byte {
	size := 4 + 2 + 4 + 4 + 4
	for _, ev := range mp.Events {
		size += minEventBytes + 4*len(ev.Join) + 4*len(ev.Leave)
	}
	out := make([]byte, 0, size)
	out = binfmt.U32(out, membershipMagic)
	out = binfmt.U16(out, membershipVersion)
	out = binfmt.U32(out, uint32(mp.Universe))
	out = binfmt.U32(out, uint32(mp.Initial))
	out = binfmt.U32(out, uint32(len(mp.Events)))
	for _, ev := range mp.Events {
		out = binfmt.F64(out, ev.TimeSec)
		out = binfmt.Ints(out, ev.Join)
		out = binfmt.Ints(out, ev.Leave)
	}
	return out
}

// DecodeMembershipPlan parses and validates a canonical schedule blob,
// rejecting truncated, oversized, trailing-garbage, and semantically
// invalid inputs.
func DecodeMembershipPlan(data []byte) (*MembershipPlan, error) {
	r := binfmt.NewReader(data, errMembership)
	if m := r.U32(); m != membershipMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", errMembership, m)
	}
	if v := r.U16(); v != membershipVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errMembership, v)
	}
	mp := &MembershipPlan{Universe: int(r.U32()), Initial: int(r.U32())}
	nev := r.Count(minEventBytes)
	if mp.Universe > maxPlanCount || nev > maxPlanCount {
		return nil, fmt.Errorf("%w: universe %d or event count %d exceeds %d", errMembership, mp.Universe, nev, maxPlanCount)
	}
	if nev > 0 {
		mp.Events = make([]MemberEvent, nev)
	}
	for i := range mp.Events {
		mp.Events[i] = MemberEvent{TimeSec: r.F64(), Join: r.Ints(), Leave: r.Ints()}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := mp.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", errMembership, err)
	}
	return mp, nil
}

// Admission tags are reserved message tags of the membership protocol.
const (
	admitTag   = "membership/admit"
	releaseTag = "membership/release"
)

// Active reports whether rank id is currently an active member. Ranks
// outside [0, Ranks) are never active.
func (m *Machine) Active(id int) bool {
	if id < 0 || id >= m.cfg.Ranks {
		return false
	}
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	return m.active[id]
}

// ActiveCount returns the current active-member count.
func (m *Machine) ActiveCount() int {
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	n := 0
	for _, a := range m.active {
		if a {
			n++
		}
	}
	return n
}

// markActive flips rank id's membership bit, rejecting out-of-range ids and
// no-op transitions so admission can never index past the universe or
// double-admit. Going dormant completes any announced departure and wakes
// the admitters waiting for it.
func (m *Machine) markActive(id int, active bool) error {
	if id < 0 || id >= m.cfg.Ranks {
		return fmt.Errorf("cluster: membership change for rank %d outside universe [0,%d)", id, m.cfg.Ranks)
	}
	m.memberMu.Lock()
	if m.active[id] == active {
		m.memberMu.Unlock()
		return fmt.Errorf("cluster: rank %d already %s", id, map[bool]string{true: "active", false: "dormant"}[active])
	}
	m.active[id] = active
	m.departing[id] = false
	m.memberMu.Unlock()
	if !active {
		m.broadcast()
	}
	return nil
}

// departPending reports whether rank id is active with an announced
// departure that has not landed yet.
func (m *Machine) departPending(id int) bool {
	if id < 0 || id >= m.cfg.Ranks {
		return false
	}
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	return m.active[id] && m.departing[id]
}

// Admit activates dormant rank `to` and hands it payload as its admission
// state. The message transfer is charged like any Send, so the joiner's
// clock advances to the admission's arrival time. If `to` has announced a
// departure that has not landed yet (see AnnounceDeparture), Admit first
// waits host-side for the Depart; the wait is free on the virtual clock.
// Admitting any other active rank, or an out-of-universe rank, panics at
// once: it is a program error on par with sending to an invalid rank.
func (r *Rank) Admit(to int, payload []byte) {
	r.awaitDeparture(to)
	if err := r.m.markActive(to, true); err != nil {
		panic(err.Error())
	}
	if r.tl != nil {
		r.Mark("admit", fmt.Sprintf("rank %d admitted by %d", to, r.id))
	}
	r.Send(to, admitTag, payload)
}

// awaitDeparture parks the caller until rank `to` has no pending departure.
// The leaver needs only host steps to Depart, so the wait ends as soon as
// its goroutine runs; a leaver that fails unwinds the caller as a survivor,
// and one that finishes without departing leaves `to` active for Admit to
// reject.
func (r *Rank) awaitDeparture(to int) {
	m := r.m
	if !m.departPending(to) {
		return
	}
	defer m.clearBlocked(r.id)
	for {
		ch := m.notified() // grab before re-checking to avoid lost wakeups
		if !m.departPending(to) {
			return
		}
		// A failing body is marked failed before it is marked finished, so
		// a finished leaver read first has its failure visible below.
		finished := m.bodyFinished(to)
		if m.isFailed(to) {
			r.interrupted()
		}
		if finished {
			return
		}
		if m.hasFailure() {
			m.setBlocked(r.id, blockInfo{kind: blockDepart, peer: to})
			if m.shouldUnwind(r.id) {
				r.interrupted()
			}
		}
		select {
		case <-ch:
		case <-m.abort:
			r.interrupted()
		}
	}
}

// AnnounceDeparture declares that the calling rank will Depart. It costs
// nothing on the virtual clock and emits no trace event. Its purpose is
// host-side ordering: call it before the last synchronization the
// departure follows (the elastic engine calls it before a boundary's union
// barrier), and an Admit of this rank that the host runs before the Depart
// lands waits for it instead of failing with "already active".
func (r *Rank) AnnounceDeparture() {
	m := r.m
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	if !m.active[r.id] {
		panic(fmt.Sprintf("cluster: dormant rank %d announced a departure", r.id))
	}
	m.departing[r.id] = true
}

// Depart marks the calling rank dormant again (a graceful leave). The
// rank's body should then park in AwaitAdmission to stay re-admittable, or
// return.
func (r *Rank) Depart() {
	if err := r.m.markActive(r.id, false); err != nil {
		panic(err.Error())
	}
	if r.tl != nil {
		r.Mark("depart", fmt.Sprintf("rank %d left the membership", r.id))
	}
}

// Release frees a dormant rank that will never be admitted: its
// AwaitAdmission returns ok=false and its body can finish.
func (r *Rank) Release(to int) {
	r.Send(to, releaseTag, nil)
}

// AwaitAdmission parks a dormant rank until an active rank Admits it
// (returning its hand-off payload and ok=true) or Releases it (ok=false).
// The wait itself is free on the virtual clock — a dormant rank models
// capacity that is not yet part of the job — but the delivered admission
// message is charged normally. Any other message arriving while dormant is
// a protocol error and panics.
func (r *Rank) AwaitAdmission() (payload []byte, ok bool) {
	from, tag, payload := r.RecvAny()
	switch tag {
	case admitTag:
		return payload, true
	case releaseTag:
		return nil, false
	default:
		panic(fmt.Sprintf("cluster: dormant rank %d received %q from rank %d", r.id, tag, from))
	}
}

// Group returns a communicator over the given active global rank ids, which
// must include the caller. Like Split, it is a collective: every listed
// member must call Group with an identical membership before any member's
// first collective on it completes. Identical memberships share one
// rendezvous (the registry is keyed by the sorted member list), so repeated
// Group calls across epochs are cheap and deterministic; Reset clears the
// registry along with the rest of the collective state.
func (r *Rank) Group(members []int) *Comm {
	ms := make([]int, len(members))
	copy(ms, members)
	sort.Ints(ms)
	for i, id := range ms {
		if id < 0 || id >= r.m.cfg.Ranks {
			panic(fmt.Sprintf("cluster: Group member %d outside universe [0,%d)", id, r.m.cfg.Ranks))
		}
		if i > 0 && id == ms[i-1] {
			panic(fmt.Sprintf("cluster: Group member %d duplicated", id))
		}
	}
	key := fmt.Sprint(ms)
	m := r.m
	m.groupMu.Lock()
	sh, ok := m.groups[key]
	if !ok {
		sh = &commShared{ranks: ms, ph: newPhaser(ms, "group"+key), lv: m.cfg.Cost.levelsFor(ms)}
		m.groups[key] = sh
	}
	m.groupMu.Unlock()
	myIdx := -1
	for i, id := range sh.ranks {
		if id == r.id {
			myIdx = i
			break
		}
	}
	if myIdx < 0 {
		panic(fmt.Sprintf("cluster: rank %d building a Group it is not a member of", r.id))
	}
	return &Comm{r: r, shared: sh, myIdx: myIdx}
}
