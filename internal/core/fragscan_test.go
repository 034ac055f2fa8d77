package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
	"pepscale/internal/topk"
)

// fragIdxAlgos enumerates every engine the fragment-index path is plumbed
// through.
var fragIdxAlgos = []Algorithm{AlgoMasterWorker, AlgoA, AlgoANoMask, AlgoB, AlgoSubGroup, AlgoCandidate}

// TestFragIdxEnginesBitIdentical runs every engine traced under the default
// peptide-major scan and under the fragment-index scan: hit lists, metrics,
// and the exported trace bytes must match exactly — the fragment index may
// change only host-side speed, never results or the virtual clock.
func TestFragIdxEnginesBitIdentical(t *testing.T) {
	in := testInput(t, 80, 12)
	for _, algo := range fragIdxAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			opt := testOptions()
			base, err := Run(algo, tracedCfg(4), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			fragOpt := opt
			fragOpt.ScanMode = ScanModeFragIdx
			frag, err := Run(algo, tracedCfg(4), in, fragOpt)
			if err != nil {
				t.Fatal(err)
			}
			queriesEqual(t, algo.String(), base.Queries, frag.Queries)
			if !reflect.DeepEqual(base.Metrics, frag.Metrics) {
				t.Errorf("metrics differ:\npeptide-major %+v\nfragidx       %+v", base.Metrics, frag.Metrics)
			}
			if !bytes.Equal(exportTrace(t, base), exportTrace(t, frag)) {
				t.Error("trace bytes differ between peptide-major and fragidx scans")
			}
		})
	}
}

// TestFragIdxEngineScorers covers the remaining scorers (the engine sweep
// above runs the default likelihood) on one transport engine, with the
// prefilter enabled to exercise the quick-walk path end to end.
func TestFragIdxEngineScorers(t *testing.T) {
	in := testInput(t, 80, 12)
	for _, scorer := range []string{"hyper", "sharedpeaks", "xcorr"} {
		for _, prefilter := range []float64{0, 0.25} {
			opt := testOptions()
			opt.ScorerName = scorer
			opt.Prefilter = prefilter
			base, err := Run(AlgoA, tracedCfg(4), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			fragOpt := opt
			fragOpt.ScanMode = ScanModeFragIdx
			frag, err := Run(AlgoA, tracedCfg(4), in, fragOpt)
			if err != nil {
				t.Fatal(err)
			}
			label := scorer
			if prefilter > 0 {
				label += "+prefilter"
			}
			queriesEqual(t, label, base.Queries, frag.Queries)
			if !reflect.DeepEqual(base.Metrics, frag.Metrics) {
				t.Errorf("%s: metrics differ", label)
			}
			if !bytes.Equal(exportTrace(t, base), exportTrace(t, frag)) {
				t.Errorf("%s: trace bytes differ", label)
			}
		}
	}
}

// TestFragIdxResilientChaos crashes a rank mid-run under the fragment-index
// scan: the recovery attempt rebuilds every block's index from scratch, and
// the final results must still match the failure-free peptide-major run
// bit-for-bit.
func TestFragIdxResilientChaos(t *testing.T) {
	in := testInput(t, 80, 12)
	opt := testOptions()
	golden, grec, err := RunElastic(clusterCfg(6), in, opt, ElasticOptions{EpochSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(grec.Attempts) != 1 {
		t.Fatalf("golden run had %d attempts", len(grec.Attempts))
	}

	fragOpt := opt
	fragOpt.ScanMode = ScanModeFragIdx

	// Failure-free fragment-index run: identical results and metrics.
	clean, _, err := RunElastic(clusterCfg(6), in, fragOpt, ElasticOptions{EpochSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "failure-free", golden.Queries, clean.Queries)
	if !reflect.DeepEqual(golden.Metrics, clean.Metrics) {
		t.Errorf("failure-free metrics differ:\npeptide-major %+v\nfragidx       %+v", golden.Metrics, clean.Metrics)
	}

	// Chaos: crash a rank, recover, rebuild indices — results unchanged.
	res, rec, err := RunElastic(clusterCfg(6), in, fragOpt, ElasticOptions{
		EpochSteps: 2,
		Faults:     []*cluster.FaultPlan{{CrashAtCall: map[int]int{1: 9}}},
	})
	if err != nil {
		t.Fatalf("%v (attempts: %+v)", err, rec.Attempts)
	}
	if len(rec.Attempts) != 2 {
		t.Fatalf("ran %d attempts, want 2 (%+v)", len(rec.Attempts), rec.Attempts)
	}
	queriesEqual(t, "chaos", golden.Queries, res.Queries)
	if res.Metrics.Candidates != golden.Metrics.Candidates {
		t.Errorf("candidates %d, want %d", res.Metrics.Candidates, golden.Metrics.Candidates)
	}
}

// TestFragIdxLibraryFallback: a spectral library cannot be mirrored by the
// index, so ScanModeFragIdx must silently fall back to the peptide-major
// sweep and still reproduce the reference results.
func TestFragIdxLibraryFallback(t *testing.T) {
	dbSpec := synth.SizedSpec(60)
	dbSpec.Seed = 7
	db := synth.GenerateDB(dbSpec)
	opt := testOptions()
	spSpec := synth.DefaultSpectraSpec(8)
	spSpec.Digest = opt.Digest
	truths, err := synth.GenerateSpectra(db, spSpec)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := digest.NewIndex(db, 0, opt.Digest)
	if err != nil {
		t.Fatal(err)
	}
	lib := spectrum.NewLibrary()
	for i := 0; i < ix.Len(); i += 5 {
		pep := ix.At(i)
		lib.Add(string(pep.Seq), spectrum.Theoretical("lib", pep.Seq, nil, 2, opt.Score.Theoretical))
	}
	opt.Score.Library = lib
	qs := prepareQueries(nil, synth.Spectra(truths), opt.Score)
	idOf := blockIDResolver(db, 0)

	refLists := make([]*topk.List, len(qs))
	fragLists := make([]*topk.List, len(qs))
	for i := range qs {
		refLists[i] = topk.New(opt.Tau)
		fragLists[i] = topk.New(opt.Tau)
	}
	sc1, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		t.Fatal(err)
	}
	refSt := scanIndexQueryMajor(qs, refLists, ix, sc1, opt, idOf)
	fragOpt := opt
	fragOpt.ScanMode = ScanModeFragIdx
	var ss scanState
	fragSt := ss.scan(qs, fragLists, ix, nil, sc2, fragOpt, idOf)
	if refSt != fragSt {
		t.Errorf("library fallback stats differ: %+v vs %+v", refSt, fragSt)
	}
	for qi := range qs {
		if !reflect.DeepEqual(refLists[qi].Hits(), fragLists[qi].Hits()) {
			t.Errorf("query %d library-fallback hits differ", qi)
		}
	}
}

// TestScanModeValidate pins the option-validation surface of ScanMode.
func TestScanModeValidate(t *testing.T) {
	for _, mode := range []string{"", ScanModePeptideMajor, ScanModeQueryMajor, ScanModeFragIdx} {
		opt := DefaultOptions()
		opt.ScanMode = mode
		if err := opt.Validate(); err != nil {
			t.Errorf("mode %q: unexpected error %v", mode, err)
		}
	}
	opt := DefaultOptions()
	opt.ScanMode = "inverted"
	if err := opt.Validate(); err == nil {
		t.Error("invalid scan mode accepted")
	}
	if math.IsNaN(opt.MinScore) {
		t.Error("sanity")
	}
}
