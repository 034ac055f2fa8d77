package binfmt

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

var errTest = errors.New("test codec: corrupt")

// sampleBlob writes one value of every field type, in the order readAll
// reads them back.
func sampleBlob() []byte {
	var b []byte
	b = U8(b, 0xab)
	b = U16(b, 0xbeef)
	b = U32(b, 0xffffffff)
	b = U64(b, 1<<63+5)
	b = F64(b, -0.5)
	b = Str(b, "PEPTIDEK")
	b = Ints(b, []int{3, 0, 7})
	b = AppendHits(b, []topk.Hit{{Peptide: "MK", Protein: -1, ProteinID: "sp|P1", Mass: 277.12, Score: 1.25}})
	b = AppendSpectrum(b, &spectrum.Spectrum{ID: "q", PrecursorMZ: 500.25, Charge: -2, Peaks: []spectrum.Peak{{MZ: 101, Intensity: 3}}})
	return b
}

type fields struct {
	u8   uint8
	u16  uint16
	i32  int32
	u64  uint64
	f64  float64
	str  string
	ints []int
	hits []topk.Hit
	spec *spectrum.Spectrum
}

func readAll(r *Reader) fields {
	return fields{u8: r.U8(), u16: r.U16(), i32: r.I32(), u64: r.U64(), f64: r.F64(), str: r.Str(),
		ints: r.Ints(), hits: r.Hits(), spec: r.Spectrum()}
}

// TestRoundTrip: every appender is read back exactly by its Reader method,
// and the blob is consumed exactly.
func TestRoundTrip(t *testing.T) {
	r := NewReader(sampleBlob(), errTest)
	got := readAll(&r)
	want := fields{u8: 0xab, u16: 0xbeef, i32: -1, u64: 1<<63 + 5, f64: -0.5, str: "PEPTIDEK", ints: []int{3, 0, 7},
		hits: []topk.Hit{{Peptide: "MK", Protein: -1, ProteinID: "sp|P1", Mass: 277.12, Score: 1.25}},
		spec: &spectrum.Spectrum{ID: "q", PrecursorMZ: 500.25, Charge: -2, Peaks: []spectrum.Peak{{MZ: 101, Intensity: 3}}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestSizes: the size helpers match what the appenders write.
func TestSizes(t *testing.T) {
	hits := []topk.Hit{{Peptide: "PEPTIDEK", ProteinID: "sp|P1"}, {}}
	if got, want := HitsSize(hits), len(AppendHits(nil, hits)); got != want {
		t.Errorf("HitsSize = %d, AppendHits wrote %d", got, want)
	}
	s := &spectrum.Spectrum{ID: "scan=1", Peaks: make([]spectrum.Peak, 3)}
	if got, want := SpectrumSize(s), len(AppendSpectrum(nil, s)); got != want {
		t.Errorf("SpectrumSize = %d, AppendSpectrum wrote %d", got, want)
	}
	if got := SpectrumSize(&spectrum.Spectrum{}); got != MinSpectrumBytes {
		t.Errorf("empty spectrum is %d bytes, want MinSpectrumBytes %d", got, MinSpectrumBytes)
	}
}

// TestEmptyLists: empty lists read as nil, and a spectrum without peaks has
// nil Peaks.
func TestEmptyLists(t *testing.T) {
	var b []byte
	b = Ints(b, nil)
	b = AppendHits(b, nil)
	b = AppendSpectrum(b, &spectrum.Spectrum{})
	r := NewReader(b, errTest)
	if ints, hits, s := r.Ints(), r.Hits(), r.Spectrum(); ints != nil || hits != nil || s.Peaks != nil {
		t.Errorf("empty lists read as %v, %v, %v", ints, hits, s.Peaks)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncation: every strict prefix of a blob fails, with the sentinel,
// and every read after the failure returns a zero value.
func TestTruncation(t *testing.T) {
	blob := sampleBlob()
	for n := 0; n < len(blob); n++ {
		r := NewReader(blob[:n], errTest)
		readAll(&r)
		err := r.Finish()
		if !errors.Is(err, errTest) {
			t.Fatalf("prefix %d: error %v does not wrap the sentinel", n, err)
		}
		if r.Len() != 0 || r.Err() != err {
			t.Fatalf("prefix %d: Len %d, Err %v after failure", n, r.Len(), r.Err())
		}
		if r.U8() != 0 || r.U32() != 0 || r.F64() != 0 || r.Str() != "" || r.Bytes(0) != nil || r.Count(1) != 0 {
			t.Fatalf("prefix %d: reads after a failure return values", n)
		}
	}
}

// TestTrailingBytes: Finish rejects unread bytes; Err does not.
func TestTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errTest)
	if r.U16(); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if err := r.Finish(); !errors.Is(err, errTest) {
		t.Fatalf("trailing byte: error %v", err)
	}
}

// TestCount: a count the remaining bytes cannot hold is rejected before the
// caller allocates; a count that fits is returned.
func TestCount(t *testing.T) {
	b := U32(nil, 2)
	b = append(b, make([]byte, 8)...)
	r := NewReader(b, errTest)
	if n := r.Count(4); n != 2 || r.Err() != nil {
		t.Fatalf("Count(4) = %d, %v", n, r.Err())
	}
	r = NewReader(b, errTest)
	if n := r.Count(5); n != 0 || !errors.Is(r.Err(), errTest) {
		t.Fatalf("Count(5) = %d, %v; want an overrun", n, r.Err())
	}
	for _, read := range []func(r *Reader){
		func(r *Reader) { r.Ints() },
		func(r *Reader) { r.Hits() },
		func(r *Reader) { r.Str() },
	} {
		r := NewReader(U32(nil, math.MaxUint32), errTest)
		read(&r)
		if !errors.Is(r.Finish(), errTest) {
			t.Error("a count of 2^32-1 with no payload was accepted")
		}
	}
}

// TestBytes: Bytes returns the next n bytes and rejects a negative or
// overlong n.
func TestBytes(t *testing.T) {
	r := NewReader([]byte("abcd"), errTest)
	if got := string(r.Bytes(3)); got != "abc" {
		t.Fatalf("Bytes(3) = %q", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after reading 3 of 4", r.Len())
	}
	if r.Bytes(-1); !errors.Is(r.Err(), errTest) {
		t.Fatalf("Bytes(-1): error %v", r.Err())
	}
	r = NewReader([]byte("ab"), errTest)
	if r.Bytes(3); !errors.Is(r.Err(), errTest) {
		t.Fatalf("Bytes(3) of 2: error %v", r.Err())
	}
}
