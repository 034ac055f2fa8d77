// The client wire codec: submission and result frames for pepd sessions.
//
// Frames follow the repository's one codec discipline, internal/binfmt: a
// magic/version header, fixed little-endian fields, float bits, binfmt's
// shared spectrum and hit-list layouts, and a strict decoder that accepts
// only canonical blobs — every accepted frame re-encodes to the exact input
// bytes, which the fuzz targets pin. A frame's length is a pure function of
// its values, so traced frame bytes are replayable.
package serve

import (
	"errors"
	"fmt"

	"pepscale/internal/binfmt"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// Frame magics ("PSUB", "PRES" little-endian) and the codec version.
const (
	submitMagic = uint32('P') | uint32('S')<<8 | uint32('U')<<16 | uint32('B')<<24
	resultMagic = uint32('P') | uint32('R')<<8 | uint32('E')<<16 | uint32('S')<<24
	wireVersion = 1
)

// errFrame reports a frame that fails structural validation.
var errFrame = errors.New("serve: corrupt frame")

// SubmitFrame is one query-spectrum submission from a client session.
type SubmitFrame struct {
	// Tenant names the submitting tenant.
	Tenant string
	// Seq is the client's per-tenant sequence number.
	Seq uint64
	// AtSec is the arrival instant on the virtual clock.
	AtSec float64
	// Spec is the query spectrum.
	Spec *spectrum.Spectrum
}

// ResultFrame streams one query's finished top-τ hits back to its client.
type ResultFrame struct {
	// Tenant and Seq echo the admission identity of the query.
	Tenant string
	Seq    uint64
	// Batch is the batch the query was served in.
	Batch int32
	// QueryID is the spectrum identifier.
	QueryID string
	// ArriveSec and DoneSec bracket the query's virtual service interval.
	ArriveSec float64
	DoneSec   float64
	// Hits is the ranked top-τ list.
	Hits []topk.Hit
}

// Encode serializes the submission frame.
func (f *SubmitFrame) Encode() []byte {
	b := make([]byte, 0, 4+4+4+len(f.Tenant)+8+8+binfmt.SpectrumSize(f.Spec))
	b = binfmt.U32(b, submitMagic)
	b = binfmt.U32(b, wireVersion)
	b = binfmt.Str(b, f.Tenant)
	b = binfmt.U64(b, f.Seq)
	b = binfmt.F64(b, f.AtSec)
	return binfmt.AppendSpectrum(b, f.Spec)
}

// DecodeSubmit parses a submission frame, rejecting any non-canonical blob
// (bad magic or version, truncation, trailing bytes, or oversized counts).
func DecodeSubmit(b []byte) (*SubmitFrame, error) {
	r := binfmt.NewReader(b, errFrame)
	if err := readHeader(&r, submitMagic, "submit"); err != nil {
		return nil, err
	}
	f := &SubmitFrame{Tenant: r.Str(), Seq: r.U64(), AtSec: r.F64(), Spec: r.Spectrum()}
	return f, r.Finish()
}

// Encode serializes the result frame.
func (f *ResultFrame) Encode() []byte {
	b := make([]byte, 0, 4+4+4+len(f.Tenant)+8+4+4+len(f.QueryID)+8+8+binfmt.HitsSize(f.Hits))
	b = binfmt.U32(b, resultMagic)
	b = binfmt.U32(b, wireVersion)
	b = binfmt.Str(b, f.Tenant)
	b = binfmt.U64(b, f.Seq)
	b = binfmt.U32(b, uint32(f.Batch))
	b = binfmt.Str(b, f.QueryID)
	b = binfmt.F64(b, f.ArriveSec)
	b = binfmt.F64(b, f.DoneSec)
	return binfmt.AppendHits(b, f.Hits)
}

// DecodeResult parses a result frame under the same canonical-only rules as
// DecodeSubmit.
func DecodeResult(b []byte) (*ResultFrame, error) {
	r := binfmt.NewReader(b, errFrame)
	if err := readHeader(&r, resultMagic, "result"); err != nil {
		return nil, err
	}
	f := &ResultFrame{Tenant: r.Str(), Seq: r.U64(), Batch: r.I32(), QueryID: r.Str(),
		ArriveSec: r.F64(), DoneSec: r.F64(), Hits: r.Hits()}
	return f, r.Finish()
}

// readHeader checks a frame's magic and codec version.
func readHeader(r *binfmt.Reader, magic uint32, kind string) error {
	if m := r.U32(); m != magic {
		return fmt.Errorf("%w: bad %s magic %#x", errFrame, kind, m)
	}
	if v := r.U32(); v != wireVersion {
		return fmt.Errorf("%w: unsupported version %d", errFrame, v)
	}
	return nil
}
