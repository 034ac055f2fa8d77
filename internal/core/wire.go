package core

import (
	"errors"

	"pepscale/internal/binfmt"
	"pepscale/internal/spectrum"
)

// This file is the wire codec for everything the engines ship between
// ranks: per-rank hit lists gathered to rank 0 and the master–worker /
// sort-path query batches. Both follow the repository's one codec
// discipline, internal/binfmt (which also owns the hit-list and spectrum
// layouts), so a blob — and therefore its length, which the tracer records
// as event payload bytes — is a pure function of the encoded values.
// encoding/gob cannot provide that: its wire type descriptors embed ids
// allocated from process-global state on first encode, so concurrently
// encoding goroutines race for id assignment and identical values may
// serialize to different byte counts from one process to the next.

// errWire reports a result, batch, admission or candidate blob that fails
// structural validation.
var errWire = errors.New("core: corrupt wire blob")

// minResultBytes is the encoded size of a result with an empty identifier
// and no hits: index, identifier length, parent mass and hit count.
const minResultBytes = 4 + 4 + 8 + 4

// encodeResults serializes per-query hit lists for the gather to rank 0.
func encodeResults(rs []QueryResult) []byte {
	n := 4
	for i := range rs {
		n += 4 + 4 + len(rs[i].ID) + 8 + binfmt.HitsSize(rs[i].Hits)
	}
	b := make([]byte, 0, n)
	b = binfmt.U32(b, uint32(len(rs)))
	for i := range rs {
		q := &rs[i]
		b = binfmt.U32(b, uint32(q.Index))
		b = binfmt.Str(b, q.ID)
		b = binfmt.F64(b, q.ParentMass)
		b = binfmt.AppendHits(b, q.Hits)
	}
	return b
}

// decodeResults parses a blob produced by encodeResults. A nil/empty blob
// decodes as an empty result set.
func decodeResults(b []byte) ([]QueryResult, error) {
	if len(b) == 0 {
		return nil, nil
	}
	r := binfmt.NewReader(b, errWire)
	rs := make([]QueryResult, r.Count(minResultBytes))
	for i := range rs {
		rs[i] = QueryResult{Index: int(r.I32()), ID: r.Str(), ParentMass: r.F64(), Hits: r.Hits()}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rs, nil
}

// encodeBatch serializes a routed query batch (indices plus raw spectra).
func encodeBatch(m batchMsg) []byte {
	n := 4 + 4*len(m.Indices) + 4
	for _, s := range m.Specs {
		n += binfmt.SpectrumSize(s)
	}
	b := make([]byte, 0, n)
	b = binfmt.U32(b, uint32(len(m.Indices)))
	for _, idx := range m.Indices {
		b = binfmt.U32(b, uint32(idx))
	}
	b = binfmt.U32(b, uint32(len(m.Specs)))
	for _, s := range m.Specs {
		b = binfmt.AppendSpectrum(b, s)
	}
	return b
}

// decodeBatch parses a blob produced by encodeBatch.
func decodeBatch(b []byte) (batchMsg, error) {
	var m batchMsg
	if len(b) == 0 {
		return m, nil
	}
	r := binfmt.NewReader(b, errWire)
	if n := r.Count(4); n > 0 {
		m.Indices = make([]int, n)
		for i := range m.Indices {
			m.Indices[i] = int(r.I32())
		}
	}
	if n := r.Count(binfmt.MinSpectrumBytes); n > 0 {
		m.Specs = make([]*spectrum.Spectrum, n)
		for i := range m.Specs {
			m.Specs[i] = r.Spectrum()
		}
	}
	if err := r.Finish(); err != nil {
		return batchMsg{}, err
	}
	return m, nil
}
