package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pepscale"
	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/fragidx"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
	"pepscale/internal/topk"
)

// inputs are a workload's generated files and the serial reference hits.
type inputs struct {
	dbPath, mgfPath string
	// ref holds core.Serial's result per query, in query order.
	ref []core.QueryResult
	// refCandidates is core.Serial's candidate count.
	refCandidates int64
}

// reference is the cached form of the serial run.
type reference struct {
	Queries    []core.QueryResult
	Candidates int64
}

// mixSeed derives a generator seed from the run seed and a per-stream
// salt (splitmix64 finalizer), so nearby run seeds give unrelated inputs.
func mixSeed(seed int64, salt uint64) uint64 {
	z := uint64(seed) + salt + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// prepare writes the workload's FASTA database of seqs sequences and MGF
// file of queries spectra, generated from the run seed, and computes the
// reference: core.Serial with the workload's options but the default
// peptide-major scan, so no kernel under test certifies itself. Files and
// reference are cached per seed and source digest; the traced run always
// reruns the reference and times it as the core.Serial span.
func (b *bench) prepare(name string, seqs, queries int, opt core.Options) (*inputs, error) {
	dir := filepath.Join(b.dir, "cache", fmt.Sprintf("%s-%dx%d-seed%d-%s", name, seqs, queries, b.seed, b.host["source"]))
	in := &inputs{dbPath: filepath.Join(dir, "db.fasta"), mgfPath: filepath.Join(dir, "queries.mgf")}
	refPath := filepath.Join(dir, "ref.gob")
	if _, err := os.Stat(in.mgfPath); err != nil {
		if err := generateInputs(dir, in, b.seed, seqs, queries); err != nil {
			return nil, err
		}
	}
	data, err := pepscale.LoadDatabaseFile(in.dbPath)
	if err != nil {
		return nil, err
	}
	qs, err := pepscale.LoadSpectraFile(in.mgfPath)
	if err != nil {
		return nil, err
	}
	var ref reference
	cached, err := os.ReadFile(refPath)
	if err == nil && !b.traced {
		if err := gob.NewDecoder(bytes.NewReader(cached)).Decode(&ref); err != nil {
			return nil, fmt.Errorf("reading cached reference: %w", err)
		}
	} else {
		refOpt := opt
		refOpt.ScanMode = core.ScanModePeptideMajor
		id := b.spans.begin("core.Serial")
		res, err := core.Serial(core.Input{DBData: data, Queries: qs}, refOpt, cluster.GigabitCluster())
		b.spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
		ref = reference{Queries: res.Queries, Candidates: res.Metrics.Candidates}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ref); err != nil {
			return nil, err
		}
		if err := writeAtomic(refPath, buf.Bytes()); err != nil {
			return nil, err
		}
	}
	if len(ref.Queries) != len(qs) {
		return nil, fmt.Errorf("reference has %d queries, input %d", len(ref.Queries), len(qs))
	}
	in.ref, in.refCandidates = ref.Queries, ref.Candidates
	return in, nil
}

// generateInputs writes the synthetic database and query spectra.
func generateInputs(dir string, in *inputs, seed int64, seqs, queries int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spec := synth.SizedSpec(seqs)
	spec.Seed = mixSeed(seed, spec.Seed)
	db := synth.GenerateDB(spec)
	ss := synth.DefaultSpectraSpec(queries)
	ss.Seed = mixSeed(seed, ss.Seed)
	truths, err := synth.GenerateSpectra(db, ss)
	if err != nil {
		return fmt.Errorf("generating spectra: %w", err)
	}
	var fa, mgf bytes.Buffer
	if err := fasta.Write(&fa, db, 60); err != nil {
		return err
	}
	if err := spectrum.WriteMGF(&mgf, synth.Spectra(truths)); err != nil {
		return err
	}
	if err := writeAtomic(in.dbPath, fa.Bytes()); err != nil {
		return err
	}
	return writeAtomic(in.mgfPath, mgf.Bytes())
}

// writeAtomic writes data to a temporary file and renames it into place.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// load is the timed part of set-up shared by every workload: read and
// parse both input files through the public loaders.
func (in *inputs) load() ([]byte, []*spectrum.Spectrum, error) {
	data, err := pepscale.LoadDatabaseFile(in.dbPath)
	if err != nil {
		return nil, nil, err
	}
	qs, err := pepscale.LoadSpectraFile(in.mgfPath)
	if err != nil {
		return nil, nil, err
	}
	return data, qs, nil
}

// sameHits reports whether two ranked hit lists are identical.
func sameHits(a, b []topk.Hit) bool {
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

// isolatedLayers times single calls into the input and index layers, each
// as a span: parsing both files, and per database block of p the digest
// index build and, where the workload scans with the fragment index, its
// build (fragidx.New plus every tier the scorer walks for these queries;
// other workloads bypass fragidx and report zero). It returns the span
// medians and the work counts.
func (b *bench) isolatedLayers(in *inputs, data []byte, qs []*spectrum.Spectrum, opt core.Options, p int) (map[string]float64, error) {
	const parseReps = 5
	mgf, err := os.ReadFile(in.mgfPath)
	if err != nil {
		return nil, err
	}
	for i := 0; i < parseReps; i++ {
		id := b.spans.begin("fasta.ParseBytes")
		_, err := fasta.ParseBytes(data)
		b.spans.end(id)
		if err != nil {
			return nil, err
		}
		id = b.spans.begin("spectrum.ParseMGF")
		_, err = spectrum.ParseMGF(bytes.NewReader(mgf))
		b.spans.end(id)
		if err != nil {
			return nil, err
		}
	}

	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return nil, err
	}
	kind := fragidx.KindMatch
	if sc.FragWalk() == score.FragWalkPasses {
		kind = fragidx.KindPasses
	}
	zs := map[int]bool{}
	for _, q := range qs {
		zs[spectrum.EffectiveMaxFragmentCharge(opt.Score.Theoretical, q.Charge)] = true
	}
	charges := make([]int, 0, len(zs))
	for z := range zs {
		charges = append(charges, z)
	}
	sort.Ints(charges)

	var peptides, postings int64
	base := int32(0)
	for _, r := range fasta.Ranges(data, p) {
		recs, err := fasta.ParseRange(data, r)
		if err != nil {
			return nil, err
		}
		id := b.spans.begin("digest.NewIndex")
		ix, err := digest.NewIndex(recs, base, opt.Digest)
		b.spans.end(id)
		if err != nil {
			return nil, err
		}
		base += int32(len(recs))
		peptides += int64(ix.Len())

		if opt.ScanMode != core.ScanModeFragIdx {
			continue
		}
		id = b.spans.begin("fragidx.build")
		fx := fragidx.New(ix, opt.Digest.Mods, opt.Score)
		var tiers []*fragidx.Tier
		for _, z := range charges {
			t := fx.Tier(z, kind)
			if t == nil {
				t = fx.Tier(z, fragidx.KindMatch)
			}
			tiers = append(tiers, t)
		}
		b.spans.end(id)
		for _, t := range tiers {
			for ord := 0; ord < fx.Len(); ord++ {
				postings += int64(t.NFrags(ord))
			}
		}
	}
	return map[string]float64{
		"fasta.parse_s":         median(b.spans.durations("fasta.ParseBytes")),
		"spectrum.mgf_parse_s":  median(b.spans.durations("spectrum.ParseMGF")),
		"digest.block_build_s":  median(b.spans.durations("digest.NewIndex")),
		"digest.peptides":       float64(peptides),
		"fragidx.block_build_s": median(b.spans.durations("fragidx.build")),
		"fragidx.postings":      float64(postings),
		"core.serial_s":         median(b.spans.durations("core.Serial")),
	}, nil
}

// sinceSec returns the seconds elapsed since t.
func sinceSec(t time.Time) float64 { return time.Since(t).Seconds() }
