// Package ckpt implements the checkpoint codec and stable store backing the
// checkpointed epoch engine (core.RunElastic) and the serving backend
// (core.Backend): a query group's or batch's recovery
// state — the block-step cursor s, the candidate counter, and every query's
// top-τ hit list — serialized to a deterministic, self-describing binary
// blob.
//
// The encoding is fixed little-endian with float bits written via
// math.Float64bits, so the same state always produces the same bytes: blobs
// are comparable, hashable, and bit-stable across runs — the property the
// chaos tests rely on when proving a recovered run identical to the
// failure-free one.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"pepscale/internal/topk"
)

// Codec framing.
const (
	magic   = 0x50434b50 // "PCKP"
	version = 1
)

// ErrCorrupt reports a blob that fails structural validation.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Query is one query's checkpointed state: its current top-τ hits in
// best-first order (topk.List.Hits order).
type Query struct {
	Hits []topk.Hit
}

// Group is the checkpoint of one query group's scan: the group survives a
// rank failure by re-offering Hits into fresh top-τ lists and resuming the
// block sweep at Cursor.
type Group struct {
	// Group is the group index (stable across restarts).
	Group int32
	// Cursor is the next block step s to scan; steps < Cursor are fully
	// reflected in the hit lists and candidate counter.
	Cursor int32
	// Candidates counts candidates scored by steps < Cursor.
	Candidates int64
	// Queries holds per-query state, indexed as in the group's query slice.
	Queries []Query
}

// Encode serializes the group deterministically.
func (g *Group) Encode() []byte {
	n := 4 + 4 + 4 + 4 + 8 + 4
	for i := range g.Queries {
		n += 4
		for j := range g.Queries[i].Hits {
			h := &g.Queries[i].Hits[j]
			n += 4 + len(h.Peptide) + 4 + 4 + len(h.ProteinID) + 8 + 8
		}
	}
	buf := make([]byte, 0, n)
	buf = appendU32(buf, magic)
	buf = appendU32(buf, version)
	buf = appendU32(buf, uint32(g.Group))
	buf = appendU32(buf, uint32(g.Cursor))
	buf = appendU64(buf, uint64(g.Candidates))
	buf = appendU32(buf, uint32(len(g.Queries)))
	for i := range g.Queries {
		hits := g.Queries[i].Hits
		buf = appendU32(buf, uint32(len(hits)))
		for j := range hits {
			h := &hits[j]
			buf = appendStr(buf, h.Peptide)
			buf = appendU32(buf, uint32(h.Protein))
			buf = appendStr(buf, h.ProteinID)
			buf = appendU64(buf, math.Float64bits(h.Mass))
			buf = appendU64(buf, math.Float64bits(h.Score))
		}
	}
	return buf
}

// Decode parses a blob produced by Encode.
func Decode(b []byte) (*Group, error) {
	d := decoder{b: b}
	if m := d.u32(); m != magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := d.u32(); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	g := &Group{
		Group:      int32(d.u32()),
		Cursor:     int32(d.u32()),
		Candidates: int64(d.u64()),
	}
	nq := d.u32()
	if d.err == nil && int(nq) > len(b) { // structural sanity before allocating
		return nil, fmt.Errorf("%w: query count %d exceeds blob size", ErrCorrupt, nq)
	}
	if d.err == nil {
		g.Queries = make([]Query, nq)
	}
	for i := 0; d.err == nil && i < int(nq); i++ {
		nh := d.u32()
		if d.err == nil && int(nh) > len(b) {
			return nil, fmt.Errorf("%w: hit count %d exceeds blob size", ErrCorrupt, nh)
		}
		if d.err != nil {
			break
		}
		hits := make([]topk.Hit, nh)
		for j := 0; d.err == nil && j < int(nh); j++ {
			hits[j] = topk.Hit{
				Peptide:   d.str(),
				Protein:   int32(d.u32()),
				ProteinID: d.str(),
				Mass:      math.Float64frombits(d.u64()),
				Score:     math.Float64frombits(d.u64()),
			}
		}
		g.Queries[i].Hits = hits
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return g, nil
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.err = fmt.Errorf("%w: truncated", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = fmt.Errorf("%w: truncated", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if uint64(n) > uint64(len(d.b)) {
		d.err = fmt.Errorf("%w: truncated string of %d bytes", ErrCorrupt, n)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Store is the stable checkpoint storage a restarted machine reads from —
// host-side state that survives rank failures, as a parallel filesystem
// would. Blobs are keyed by group; a Put replaces the group's previous
// checkpoint. Safe for concurrent use by rank goroutines.
type Store struct {
	mu     sync.Mutex
	blobs  map[int32][]byte
	writes int64
	bytes  int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{blobs: make(map[int32][]byte)}
}

// Put durably records the group's checkpoint (copying blob).
func (s *Store) Put(group int32, blob []byte) {
	cp := make([]byte, len(blob))
	copy(cp, blob)
	s.mu.Lock()
	s.blobs[group] = cp
	s.writes++
	s.bytes += int64(len(blob))
	s.mu.Unlock()
}

// Get returns a copy of the group's latest checkpoint, if any.
func (s *Store) Get(group int32) ([]byte, bool) {
	s.mu.Lock()
	blob, ok := s.blobs[group]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	return cp, true
}

// Writes returns the number of Put calls.
func (s *Store) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Bytes returns the cumulative bytes written.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the number of groups with a checkpoint.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}
