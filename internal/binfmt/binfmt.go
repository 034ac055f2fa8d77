// Package binfmt is the one binary-codec discipline behind every framed
// blob pepscale ships between ranks, stores as a checkpoint or exchanges
// with a pepd client: fixed little-endian fields, floats by their IEEE-754
// bits (math.Float64bits), strings as a u32 length followed by the raw
// bytes, and a strict Reader that accepts only blobs the appenders can
// produce.
//
// A blob's length is therefore a pure function of the encoded values. That
// matters beyond storage: the virtual clock charges every shipped byte, and
// the tracer records blob lengths as event payloads, so a codec that is not
// value-deterministic would make virtual time and traces unreplayable.
//
// The appenders (U8, U16, U32, U64, F64, Str, Ints, AppendHits,
// AppendSpectrum) extend a byte slice. The Reader is a bounded cursor with
// a sticky error: after the first failed read every later read returns a
// zero value, so a decoder reads its whole schema straight through and
// checks once, in Finish. Every error wraps the sentinel the codec passed
// to NewReader. Counts are checked against the bytes left before anything
// is allocated, so a hostile count cannot force a large allocation.
//
// The package also owns the two record layouts that several formats share:
// the topk.Hit list (checkpoints, gathered results, pepd result frames) and
// the query spectrum (routed query batches, pepd submit frames).
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// U8 appends one byte.
func U8(b []byte, v uint8) []byte { return append(b, v) }

// U16 appends a little-endian uint16.
func U16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// U32 appends a little-endian uint32.
func U32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// U64 appends a little-endian uint64.
func U64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// F64 appends a float64 by its IEEE-754 bits.
func F64(b []byte, v float64) []byte { return U64(b, math.Float64bits(v)) }

// Str appends a u32 length and the string's bytes.
func Str(b []byte, s string) []byte { return append(U32(b, uint32(len(s))), s...) }

// Ints appends a u32 count and each value as a u32 (Reader.Ints reads them
// back unsigned).
func Ints(b []byte, vs []int) []byte {
	b = U32(b, uint32(len(vs)))
	for _, v := range vs {
		b = U32(b, uint32(v))
	}
	return b
}

// minHitBytes is the encoded size of a hit with empty strings: the two
// string lengths, the protein index, the mass and the score.
const minHitBytes = 4 + 4 + 4 + 8 + 8

// HitsSize is the encoded size of AppendHits(nil, hits).
func HitsSize(hits []topk.Hit) int {
	n := 4
	for i := range hits {
		n += minHitBytes + len(hits[i].Peptide) + len(hits[i].ProteinID)
	}
	return n
}

// AppendHits appends a top-τ hit list: a u32 count, then per hit the
// peptide, the protein index, the protein identifier, the mass and the
// score, in list order.
func AppendHits(b []byte, hits []topk.Hit) []byte {
	b = U32(b, uint32(len(hits)))
	for i := range hits {
		h := &hits[i]
		b = Str(b, h.Peptide)
		b = U32(b, uint32(h.Protein))
		b = Str(b, h.ProteinID)
		b = F64(b, h.Mass)
		b = F64(b, h.Score)
	}
	return b
}

// MinSpectrumBytes is the encoded size of a spectrum with an empty
// identifier and no peaks: the identifier length, the precursor m/z, the
// charge and the peak count.
const MinSpectrumBytes = 4 + 8 + 4 + 4

// peakBytes is the encoded size of one peak (m/z, intensity).
const peakBytes = 8 + 8

// SpectrumSize is the encoded size of AppendSpectrum(nil, s).
func SpectrumSize(s *spectrum.Spectrum) int {
	return MinSpectrumBytes + len(s.ID) + peakBytes*len(s.Peaks)
}

// AppendSpectrum appends a query spectrum: its identifier, precursor m/z,
// charge (as a signed 32-bit value), a u32 peak count and each peak's m/z
// and intensity.
func AppendSpectrum(b []byte, s *spectrum.Spectrum) []byte {
	b = Str(b, s.ID)
	b = F64(b, s.PrecursorMZ)
	b = U32(b, uint32(s.Charge))
	b = U32(b, uint32(len(s.Peaks)))
	for _, p := range s.Peaks {
		b = F64(b, p.MZ)
		b = F64(b, p.Intensity)
	}
	return b
}

// Reader is a bounded little-endian cursor over one blob with a sticky
// error. The zero value is not usable; construct it with NewReader.
type Reader struct {
	b        []byte
	off      int
	sentinel error
	err      error
}

// NewReader returns a Reader over b whose errors all wrap sentinel.
func NewReader(b []byte, sentinel error) Reader {
	return Reader{b: b, sentinel: sentinel}
}

// Len reports the number of unread bytes, or 0 once a read has failed, so
// a loop that reads records until the blob is exhausted also stops at the
// first error.
func (r *Reader) Len() int {
	if r.err != nil {
		return 0
	}
	return len(r.b) - r.off
}

// Err returns the first read error, or nil. Decoders of canonical formats
// call Finish instead.
func (r *Reader) Err() error { return r.err }

// Finish returns the first read error or, failing that, an error if any
// byte is left unread: a canonical blob is consumed exactly.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%w: %d trailing bytes", r.sentinel, len(r.b)-r.off)
	}
	return r.err
}

// take consumes the next n bytes, or records a truncation and returns nil.
func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail(what)
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

func (r *Reader) fail(what string) {
	r.err = fmt.Errorf("%w: truncated %s at offset %d", r.sentinel, what, r.off)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if p := r.take(1, "u8"); p != nil {
		return p[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if p := r.take(2, "u16"); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if p := r.take(4, "u32"); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// I32 reads a little-endian uint32 as a two's-complement int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if p := r.take(8, "u64"); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads the next n bytes. The result aliases the blob: copy it
// before keeping it past the blob's lifetime.
func (r *Reader) Bytes(n int) []byte { return r.take(n, "bytes") }

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.take(int(r.U32()), "string")) }

// Count reads a u32 element count and rejects it, returning 0, when the
// unread bytes cannot hold that many elements of at least minElemBytes
// each — before the caller allocates anything.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(minElemBytes) > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("%w: count %d overruns the %d bytes left", r.sentinel, n, len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Ints reads a list written by Ints: nil for an empty list, values read
// unsigned.
func (r *Reader) Ints() []int {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(r.U32())
	}
	return vs
}

// Hits reads a hit list written by AppendHits; an empty list reads as nil.
func (r *Reader) Hits() []topk.Hit {
	n := r.Count(minHitBytes)
	if n == 0 {
		return nil
	}
	hits := make([]topk.Hit, n)
	for i := range hits {
		hits[i] = topk.Hit{Peptide: r.Str(), Protein: r.I32(), ProteinID: r.Str(), Mass: r.F64(), Score: r.F64()}
	}
	return hits
}

// Spectrum reads a spectrum written by AppendSpectrum; a spectrum without
// peaks reads with nil Peaks.
func (r *Reader) Spectrum() *spectrum.Spectrum {
	s := &spectrum.Spectrum{ID: r.Str(), PrecursorMZ: r.F64(), Charge: int(r.I32())}
	if n := r.Count(peakBytes); n > 0 {
		s.Peaks = make([]spectrum.Peak, n)
		for i := range s.Peaks {
			s.Peaks[i] = spectrum.Peak{MZ: r.F64(), Intensity: r.F64()}
		}
	}
	return s
}
