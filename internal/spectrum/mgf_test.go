package spectrum

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestMGFRoundTrip(t *testing.T) {
	specs := []*Spectrum{
		{ID: "scan=1", PrecursorMZ: 523.7761, Charge: 2, Peaks: []Peak{{147.1128, 20.5}, {263.0875, 99}}},
		{ID: "scan=2 with spaces", PrecursorMZ: 801.4, Charge: 3, Peaks: []Peak{{100.5, 1}}},
	}
	var buf bytes.Buffer
	if err := WriteMGF(&buf, specs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseMGF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d spectra", len(back))
	}
	for i := range specs {
		if back[i].ID != specs[i].ID || back[i].Charge != specs[i].Charge {
			t.Errorf("spectrum %d header mismatch: %+v", i, back[i])
		}
		if math.Abs(back[i].PrecursorMZ-specs[i].PrecursorMZ) > 1e-4 {
			t.Errorf("spectrum %d pepmass: %v", i, back[i].PrecursorMZ)
		}
		if len(back[i].Peaks) != len(specs[i].Peaks) {
			t.Errorf("spectrum %d peaks: %d", i, len(back[i].Peaks))
		}
	}
}

func TestParseMGFTolerant(t *testing.T) {
	in := `
# a comment
BEGIN IONS
TITLE=q1
RTINSECONDS=123.4
PEPMASS=500.25 12345.6
CHARGE=2+
100.1 5
200.2 10
END IONS
`
	specs, err := ParseMGF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || len(specs[0].Peaks) != 2 || specs[0].PrecursorMZ != 500.25 {
		t.Fatalf("parse: %+v", specs)
	}
}

func TestParseMGFErrors(t *testing.T) {
	cases := []string{
		"BEGIN IONS\nTITLE=a\nBEGIN IONS\nEND IONS\n", // nested
		"END IONS\n",                          // end without begin
		"100.1 5\n",                           // peak outside block
		"BEGIN IONS\nPEPMASS=abc\nEND IONS\n", // bad pepmass
		"BEGIN IONS\nCHARGE=0+\nEND IONS\n",   // bad charge
		"BEGIN IONS\n100.1\nEND IONS\n",       // short peak line
		"BEGIN IONS\nTITLE=q\n100.1 5\n",      // unterminated
		"BEGIN IONS\nxyz zz\nEND IONS\n",      // bad peak floats
		"BEGIN IONS\nPEPMASS=NaN\nEND IONS\n", // non-finite pepmass
		"BEGIN IONS\n100.1 -Inf\nEND IONS\n",  // non-finite peak
	}
	for _, in := range cases {
		if _, err := ParseMGF(strings.NewReader(in)); !errors.Is(err, ErrMGF) {
			t.Errorf("ParseMGF(%q) error = %v, want ErrMGF", in, err)
		}
	}
}

func TestParseMGFEmpty(t *testing.T) {
	specs, err := ParseMGF(strings.NewReader(""))
	if err != nil || len(specs) != 0 {
		t.Errorf("empty: %v %v", specs, err)
	}
}

// FuzzParseMGF hammers the MGF reader with arbitrary text: it must never
// panic, every error must wrap ErrMGF, and every accepted spectrum must be
// usable by the engines — a charge of at least 1, a finite precursor m/z,
// finite peaks in ascending m/z order — and survive a WriteMGF round trip
// with its identifier, charge and peak count intact.
func FuzzParseMGF(f *testing.F) {
	f.Add("")
	f.Add("BEGIN IONS\nTITLE=q1\nPEPMASS=500.25 12345.6\nCHARGE=2+\n200.2 10\n100.1 5\nEND IONS\n")
	f.Add("# comment\n\nBEGIN IONS\nRTINSECONDS=1\nEND IONS\nBEGIN IONS\nTITLE=scan=2 with spaces\nCHARGE=3\n1e3 0\nEND IONS\n")
	f.Add("BEGIN IONS\nTITLE=q\n100.1 5\n")
	f.Add("BEGIN IONS\nCHARGE=0+\nEND IONS\n")
	f.Fuzz(func(t *testing.T, in string) {
		specs, err := ParseMGF(strings.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrMGF) {
				t.Fatalf("error %v does not wrap ErrMGF", err)
			}
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for i, s := range specs {
			if s.Charge < 1 || !finite(s.PrecursorMZ) {
				t.Fatalf("spectrum %d: charge %d, precursor %v", i, s.Charge, s.PrecursorMZ)
			}
			for k, p := range s.Peaks {
				if !finite(p.MZ) || !finite(p.Intensity) {
					t.Fatalf("spectrum %d: non-finite peak %+v", i, p)
				}
				if k > 0 && p.MZ < s.Peaks[k-1].MZ {
					t.Fatalf("spectrum %d: peaks out of m/z order at %d", i, k)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteMGF(&buf, specs); err != nil {
			t.Fatal(err)
		}
		back, err := ParseMGF(&buf)
		if err != nil {
			t.Fatalf("re-parse of written spectra: %v", err)
		}
		if len(back) != len(specs) {
			t.Fatalf("round trip: %d spectra, want %d", len(back), len(specs))
		}
		for i := range specs {
			if back[i].ID != specs[i].ID || back[i].Charge != specs[i].Charge || len(back[i].Peaks) != len(specs[i].Peaks) {
				t.Fatalf("round trip changed spectrum %d: %+v, want %+v", i, back[i], specs[i])
			}
		}
	})
}
