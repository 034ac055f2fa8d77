// Package placement is the first-class partition layer of the checkpointed
// epoch engine (core.RunElastic) and the serving backend: a deterministic mapping from the job's stable logical structure —
// p0 database blocks and p0 query groups, fixed for the lifetime of a search
// — to a current membership set of global rank ids.
//
// Two constructors cover the two regimes. RoundRobin is the modular
// partition (block b and group g on member b mod p′) every checkpointed run
// starts from, which remaps almost every assignment when the membership
// changes. Next computes an incremental plan instead: assignments whose
// owner survives keep their owner wherever the balance targets allow, and
// only the orphaned or over-quota remainder moves — the minimal migration
// set for exact ⌈/⌋-balanced ownership. Rebalance diffs two plans into the
// explicit Migration list the elastic transport executes (block windows
// re-fetched over the network, group cursors restored from the checkpoint
// store).
//
// Everything here is pure data manipulation: plans depend only on
// (Blocks, Groups, member list), members are kept in ascending order, and
// ties break toward lower ids — so every rank of a changing machine computes
// bit-identical plans from the same membership history, which is what lets
// the elastic engine fire membership events without any coordinator state.
package placement

import (
	"fmt"
	"sort"
)

// Plan is one immutable assignment of the stable logical partition to a
// membership set. Owners are global rank ids, not membership indices, so a
// plan stays meaningful as the membership evolves around it.
type Plan struct {
	// Blocks and Groups are the stable partition widths (the elastic engines
	// use Blocks == Groups == the initial rank count p0).
	Blocks int
	Groups int
	// Members is the plan's membership in ascending global-rank order.
	Members []int
	// BlockOwner[b] and GroupOwner[g] name the owning member of each block
	// and group.
	BlockOwner []int
	GroupOwner []int
}

// MigrationKind distinguishes what a migration moves.
type MigrationKind uint8

const (
	// MigrateBlock moves a database block: the new owner fetches the block's
	// RMA window from the old owner and re-exposes it.
	MigrateBlock MigrationKind = iota
	// MigrateGroup moves a query group's cursor state: the new owner
	// restores the group's latest checkpoint from the stable store.
	MigrateGroup
)

// String implements fmt.Stringer.
func (k MigrationKind) String() string {
	switch k {
	case MigrateBlock:
		return "block"
	case MigrateGroup:
		return "group"
	default:
		return fmt.Sprintf("MigrationKind(%d)", int(k))
	}
}

// Migration is one ownership transfer between two plans. From is negative
// when the old plan did not assign the id (it never is for plans over the
// same partition widths).
type Migration struct {
	Kind     MigrationKind
	ID       int // block or group id
	From, To int // global rank ids
}

// Validate reports structural errors: empty or unsorted membership,
// duplicate members, or owners outside the membership.
func (p *Plan) Validate() error {
	if p.Blocks < 0 || p.Groups < 0 {
		return fmt.Errorf("placement: negative partition widths %d/%d", p.Blocks, p.Groups)
	}
	if len(p.Members) == 0 {
		return fmt.Errorf("placement: plan has no members")
	}
	for i := 1; i < len(p.Members); i++ {
		if p.Members[i] <= p.Members[i-1] {
			return fmt.Errorf("placement: members not strictly ascending at index %d", i)
		}
	}
	if len(p.BlockOwner) != p.Blocks || len(p.GroupOwner) != p.Groups {
		return fmt.Errorf("placement: owner tables sized %d/%d, want %d/%d",
			len(p.BlockOwner), len(p.GroupOwner), p.Blocks, p.Groups)
	}
	for _, tbl := range [][]int{p.BlockOwner, p.GroupOwner} {
		for id, owner := range tbl {
			if p.memberIndex(owner) < 0 {
				return fmt.Errorf("placement: id %d owned by %d, not a member", id, owner)
			}
		}
	}
	return nil
}

// memberIndex returns the position of rank in Members, or -1.
func (p *Plan) memberIndex(rank int) int {
	i := sort.SearchInts(p.Members, rank)
	if i < len(p.Members) && p.Members[i] == rank {
		return i
	}
	return -1
}

// IsMember reports whether rank belongs to the plan's membership.
func (p *Plan) IsMember(rank int) bool { return p.memberIndex(rank) >= 0 }

// BlockRank returns the global rank owning block b.
func (p *Plan) BlockRank(b int) int { return p.BlockOwner[b] }

// GroupRank returns the global rank owning group g.
func (p *Plan) GroupRank(g int) int { return p.GroupOwner[g] }

// BlocksOf returns the ascending block ids owned by rank.
func (p *Plan) BlocksOf(rank int) []int { return idsOf(p.BlockOwner, rank) }

// GroupsOf returns the ascending group ids owned by rank.
func (p *Plan) GroupsOf(rank int) []int { return idsOf(p.GroupOwner, rank) }

func idsOf(owner []int, rank int) []int {
	var out []int
	for id, o := range owner {
		if o == rank {
			out = append(out, id)
		}
	}
	return out
}

// sortedMembers returns a defensive ascending copy of members, rejecting
// duplicates.
func sortedMembers(members []int) ([]int, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("placement: empty membership")
	}
	out := make([]int, len(members))
	copy(out, members)
	sort.Ints(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("placement: duplicate member %d", out[i])
		}
	}
	return out, nil
}

// RoundRobin builds the historical modular plan: block b and group g are
// owned by the (b mod p′)-th and (g mod p′)-th member in ascending order —
// over members 0..p′−1, exactly Algorithm A's rank-b-owns-block-b layout.
func RoundRobin(blocks, groups int, members []int) (*Plan, error) {
	ms, err := sortedMembers(members)
	if err != nil {
		return nil, err
	}
	p := &Plan{Blocks: blocks, Groups: groups, Members: ms,
		BlockOwner: make([]int, blocks), GroupOwner: make([]int, groups)}
	for b := 0; b < blocks; b++ {
		p.BlockOwner[b] = ms[b%len(ms)]
	}
	for g := 0; g < groups; g++ {
		p.GroupOwner[g] = ms[g%len(ms)]
	}
	return p, nil
}

// Scratch is one rank's reusable working storage for incremental planning.
// Each rank of the elastic engine owns a private Scratch for the lifetime of
// its body and recomputes the shared plan locally at every membership event,
// so the buffers follow the same single-goroutine ownership discipline as
// cluster.Rank.
//
//pepvet:perrank
type Scratch struct {
	target  []int // per-member capacity target for the current table
	load    []int // per-member kept-assignment count
	orphans []int // ids needing a new owner, ascending
}

// Next computes the incremental successor of prev over a new membership:
// the unique plan in which (1) every member's load meets the balanced
// target — ⌊ids/n⌋ or ⌈ids/n⌉, the ceiling going to the lowest-id members —
// (2) an assignment moves only if its old owner left or exceeds its target,
// and (3) surviving owners keep their lowest ids while orphaned ids go,
// ascending, to the lowest-id members with remaining deficit. The number of
// moves equals the total deficit, which no balanced plan can undercut, so
// the migration set is minimal.
func (s *Scratch) Next(prev *Plan, members []int) (*Plan, error) {
	ms, err := sortedMembers(members)
	if err != nil {
		return nil, err
	}
	next := &Plan{Blocks: prev.Blocks, Groups: prev.Groups, Members: ms,
		BlockOwner: make([]int, prev.Blocks), GroupOwner: make([]int, prev.Groups)}
	s.assign(prev.BlockOwner, next.BlockOwner, next)
	s.assign(prev.GroupOwner, next.GroupOwner, next)
	return next, nil
}

// assign fills one owner table of next from its predecessor, keeping every
// assignment the targets allow.
func (s *Scratch) assign(prev, out []int, next *Plan) {
	n := len(next.Members)
	base, extra := len(prev)/n, len(prev)%n
	s.target = append(s.target[:0], make([]int, n)...)
	s.load = append(s.load[:0], make([]int, n)...)
	s.orphans = s.orphans[:0]
	for i := range s.target {
		s.target[i] = base
		if i < extra {
			s.target[i]++
		}
	}
	for id, owner := range prev {
		if mi := next.memberIndex(owner); mi >= 0 && s.load[mi] < s.target[mi] {
			out[id] = owner
			s.load[mi]++
		} else {
			s.orphans = append(s.orphans, id)
		}
	}
	mi := 0
	for _, id := range s.orphans {
		for s.load[mi] >= s.target[mi] {
			mi++
		}
		out[id] = next.Members[mi]
		s.load[mi]++
	}
}

// Next is the allocation-per-call convenience form of Scratch.Next.
func Next(prev *Plan, members []int) (*Plan, error) {
	var s Scratch
	return s.Next(prev, members)
}

// Rebalance diffs two plans over the same partition widths into the ordered
// migration list: blocks first, then groups, each ascending by id.
func Rebalance(old, new *Plan) ([]Migration, error) {
	if old.Blocks != new.Blocks || old.Groups != new.Groups {
		return nil, fmt.Errorf("placement: rebalance across widths %d/%d vs %d/%d",
			old.Blocks, old.Groups, new.Blocks, new.Groups)
	}
	var out []Migration
	for b := 0; b < old.Blocks; b++ {
		if old.BlockOwner[b] != new.BlockOwner[b] {
			out = append(out, Migration{Kind: MigrateBlock, ID: b, From: old.BlockOwner[b], To: new.BlockOwner[b]})
		}
	}
	for g := 0; g < old.Groups; g++ {
		if old.GroupOwner[g] != new.GroupOwner[g] {
			out = append(out, Migration{Kind: MigrateGroup, ID: g, From: old.GroupOwner[g], To: new.GroupOwner[g]})
		}
	}
	return out, nil
}
