package core

import (
	"fmt"
	"sync"

	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/fragidx"
	"pepscale/internal/sortmz"
)

// indexCache memoizes per-block derived data for the lifetime of its owner:
// one run for the batch and elastic engines, the Backend for pepd. On a real
// cluster every rank parses and digests each transported block itself (and
// the virtual clock still charges that work per rank); on the simulation
// host, p ranks rebuilding identical immutable structures would multiply
// wall-clock time AND resident memory by p for no fidelity gain, so the
// host builds each block's parse, digest index and fragment index once,
// keyed by block. The clock never charged the fragment-index build, so
// sharing it moves no virtual time. Cached values are immutable after
// construction, or (the fragment index's lazily built tiers) safe for
// concurrent use, and therefore safe to share across rank goroutines.
type indexCache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
	// dense is a per-kind slice fast path for the dominant key shape:
	// block-index hashes (see blockKey), which are small integers. At
	// p=4096 the transport loops perform O(p²) cache lookups per run, and
	// the map's hash+equality per lookup dominates the simulation host's
	// time; a slice index replaces both. Keys with large hashes (content
	// hashes) and size-mismatched slots fall back to the map.
	dense [kindCount][]denseSlot
}

// denseSlot is one dense fast-path entry; occupied when e is non-nil. size
// guards against (implausible) same-index different-size keys.
type denseSlot struct {
	e    *cacheEntry
	size int
}

// denseHashLimit bounds the dense fast path's memory: hashes at or above it
// (content hashes, which are effectively random uint64s) use the map.
const denseHashLimit = 1 << 16

// cacheEntry is a single-flight slot: the first requester builds, everyone
// else waits on the Once. Without this, p ranks hitting a cold key (every
// master-worker rank needs the same full-database index at the same
// instant) would run p concurrent digests and multiply peak memory by p.
type cacheEntry struct {
	once sync.Once
	v    interface{}
	err  error
}

// cacheKind namespaces the derived-data type within the cache.
type cacheKind uint8

const (
	kindIndex cacheKind = iota
	kindRecords
	kindSeqs
	kindCands
	kindRanges
	kindFragIdx
	kindCandIndex

	kindCount = int(kindCandIndex) + 1
)

type cacheKey struct {
	hash uint64
	size int
	kind cacheKind
}

// blockKey identifies one transported block within a run. The cache lives
// for a single run, every rank partitions the database with the identical
// fasta.Ranges / counting-sort computation, and a block's wire image is a
// pure function of its block index (Algorithms A, SubGroup) or owner rank
// (Algorithm B, Candidate) — so the index alone is a collision-free key.
// Deriving it once per block replaces the old content re-hash, which
// re-FNVed every transported block's O(N/p) bytes on every iteration of
// every rank's transport loop (O(p²·N/p) = O(pN) hashed bytes per run).
func blockKey(block int, size int) cacheKey {
	return cacheKey{hash: uint64(block), size: size}
}

func newIndexCache() *indexCache {
	return &indexCache{m: make(map[cacheKey]*cacheEntry)}
}

// getOrBuild returns the cached value for key, building it exactly once
// (single-flight); concurrent requesters block until the build completes.
func (c *indexCache) getOrBuild(key cacheKey, build func() (interface{}, error)) (interface{}, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	var e *cacheEntry
	if key.hash < denseHashLimit {
		d := c.dense[key.kind]
		if int(key.hash) >= len(d) {
			n := int(key.hash) + 1
			if g := 2 * len(d); g > n {
				n = g
			}
			nd := make([]denseSlot, n)
			copy(nd, d)
			c.dense[key.kind] = nd
			d = nd
		}
		if s := &d[key.hash]; s.e == nil {
			e = &cacheEntry{}
			*s = denseSlot{e: e, size: key.size}
		} else if s.size == key.size {
			e = s.e
		}
	}
	if e == nil {
		var ok bool
		e, ok = c.m[key]
		if !ok {
			e = &cacheEntry{}
			c.m[key] = e
		}
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.v, e.err = build()
	})
	return e.v, e.err
}

// builtIndex pairs a block index with its memory footprint, computed once
// at build time. The footprint walk is O(index) and the transport loops ask
// for it O(p) times per block.
type builtIndex struct {
	ix   *digest.Index
	foot int64
}

// indexFor returns the mass index for a block and its footprint, building
// both on first use. key must identify both content and protein numbering;
// block-index keys do (the gid bases are a pure function of the block
// index, and Algorithm B's wire format embeds gids in the bytes).
func (c *indexCache) indexFor(key cacheKey, recs []fasta.Record, gids []int32, p digest.Params) (*digest.Index, int64, error) {
	key.kind = kindIndex
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		ix, err := digest.NewIndexIDs(recs, gids, p)
		if err != nil {
			return nil, err
		}
		return builtIndex{ix: ix, foot: indexFootprintBytes(ix)}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	b := v.(builtIndex)
	return b.ix, b.foot, nil
}

// fragIndexFor returns the fragment index over ix, the digest index cached
// under key, creating it once per key; its tiers are built on demand by the
// first rank that walks them. It returns nil when opt does not select the
// fragment-index scan, so other scan modes cache nothing. A nil cache
// builds a throwaway index.
func (c *indexCache) fragIndexFor(key cacheKey, ix *digest.Index, opt Options) *fragidx.Index {
	if !fragIdxScan(opt) {
		return nil
	}
	key.kind = kindFragIdx
	v, _ := c.getOrBuild(key, func() (interface{}, error) {
		return fragidx.New(ix, opt.Digest.Mods, opt.Score), nil
	})
	return v.(*fragidx.Index)
}

// rangesFor memoizes the record-aligned blocks-way partition of the
// database image. Every rank computes the identical partition, and the scan
// is O(N); without memoization a p=4096 machine spends a third of its host
// time re-scanning the FASTA image p times during the load phase.
func (c *indexCache) rangesFor(data []byte, blocks int) []fasta.Range {
	if c == nil {
		return fasta.Ranges(data, blocks)
	}
	key := cacheKey{hash: uint64(blocks), kind: kindRanges}
	v, _ := c.getOrBuild(key, func() (interface{}, error) {
		return fasta.Ranges(data, blocks), nil
	})
	return v.([]fasta.Range)
}

// recsFor parses a raw FASTA block once per key.
func (c *indexCache) recsFor(key cacheKey, raw []byte) ([]fasta.Record, error) {
	key.kind = kindRecords
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		return fasta.ParseBytes(raw)
	})
	if err != nil {
		return nil, fmt.Errorf("core: parse block: %w", err)
	}
	return v.([]fasta.Record), nil
}

// seqsFor decodes an Algorithm B wire block once per key.
func (c *indexCache) seqsFor(key cacheKey, raw []byte) ([]sortmz.Seq, error) {
	key.kind = kindSeqs
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		return sortmz.UnmarshalSeqs(raw)
	})
	if err != nil {
		return nil, err
	}
	return v.([]sortmz.Seq), nil
}

// candsFor decodes a candidate-transport wire block once per key.
func (c *indexCache) candsFor(key cacheKey, raw []byte) ([]candEntry, error) {
	key.kind = kindCands
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		return unmarshalCands(raw)
	})
	if err != nil {
		return nil, err
	}
	return v.([]candEntry), nil
}

// candIndex is a candidate band's mass index, with its fragment index when
// the scan mode uses one, plus the band's protein identifiers.
type candIndex struct {
	ix      *digest.Index
	fx      *fragidx.Index
	idByGID map[int32]string
}

// candIndexFor indexes a candidate-transport band once per key. The band is
// already digested: its index is the entries in mass order, with no
// re-digestion.
func (c *indexCache) candIndexFor(key cacheKey, block []candEntry, opt Options) (*candIndex, error) {
	key.kind = kindCandIndex
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		peps := make([]digest.Peptide, len(block))
		idByGID := make(map[int32]string, len(block))
		for i, e := range block {
			peps[i] = digest.Peptide{Seq: e.Seq, Protein: e.GID, Mass: e.Mass, Sites: e.Sites}
			idByGID[e.GID] = e.ID
		}
		ix, err := digest.IndexFromPeptides(peps, opt.Digest)
		if err != nil {
			return nil, err
		}
		ci := &candIndex{ix: ix, idByGID: idByGID}
		if fragIdxScan(opt) {
			ci.fx = fragidx.New(ix, opt.Digest.Mods, opt.Score)
		}
		return ci, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*candIndex), nil
}
