package core

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/eval"
)

// TestCompiledGoldenEquivalence pins the compile step's core contract:
// for every benchmark's fitted performance and power models, the
// compiled evaluator — on both the value path and the level-table path —
// is bit-identical to the interpreted Model.Predict, over a large
// deterministic sample of the study space and over the full space for
// one benchmark.
func TestCompiledGoldenEquivalence(t *testing.T) {
	e := testExplorer(t)
	space := e.StudySpace
	for _, bench := range e.Benchmarks() {
		perf, pow, err := e.Models(bench)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := eval.CompilePair(perf, pow, space)
		if err != nil {
			t.Fatal(err)
		}
		if !pair.Leveled() {
			t.Fatalf("%s: compiled pair not leveled against the study space", bench)
		}
		var scratch eval.PairScratch
		for _, pt := range space.SampleUAR(10000, 0xC0FFEE) {
			cfg := space.Config(pt)
			get := arch.PredictorGetter(cfg)
			wantB, wantW := perf.Predict(get), pow.Predict(get)
			if b, w := pair.EvalConfig(cfg, &scratch); b != wantB || w != wantW {
				t.Fatalf("%s: EvalConfig(%v) = (%v, %v), interpreted (%v, %v)",
					bench, cfg, b, w, wantB, wantW)
			}
			if b, w := pair.EvalLevels(pt[:], &scratch); b != wantB || w != wantW {
				t.Fatalf("%s: EvalLevels(%v) = (%v, %v), interpreted (%v, %v)",
					bench, pt, b, w, wantB, wantW)
			}
		}
	}

	// Full 262,500-point space for one benchmark.
	perf, pow, err := e.Models("gzip")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := eval.CompilePair(perf, pow, space)
	if err != nil {
		t.Fatal(err)
	}
	var scratch eval.PairScratch
	for i := 0; i < space.Size(); i++ {
		pt := space.PointAt(i)
		get := arch.PredictorGetter(space.Config(pt))
		wantB, wantW := perf.Predict(get), pow.Predict(get)
		if b, w := pair.EvalLevels(pt[:], &scratch); b != wantB || w != wantW {
			t.Fatalf("gzip flat %d: compiled (%v, %v), interpreted (%v, %v)",
				i, b, w, wantB, wantW)
		}
	}
}

// TestSweepThreePathsBitIdentical is the golden equivalence ladder for
// the exhaustive sweep: the blocked structure-of-arrays kernel (the
// default), the scalar compiled kernel (DisableBlocked) and the
// interpreted per-request path (DisableCompile) must produce
// bit-identical output over the full 262,500-point study space for
// every trained benchmark — and each explorer must actually take its
// intended path.
func TestSweepThreePathsBitIdentical(t *testing.T) {
	e := testExplorer(t)

	newPath := func(mutate func(*Options)) *Explorer {
		t.Helper()
		opts := e.Options()
		mutate(&opts)
		ex, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := copyModels(e, ex); err != nil {
			t.Fatal(err)
		}
		return ex
	}
	scalar := newPath(func(o *Options) { o.DisableBlocked = true })
	interp := newPath(func(o *Options) { o.DisableCompile = true })

	n := e.StudySpace.Size()
	blockedOut := make([]Prediction, n)
	scalarOut := make([]Prediction, n)
	interpOut := make([]Prediction, n)
	for _, bench := range e.Benchmarks() {
		if err := e.ExhaustivePredictInto(context.Background(), bench, blockedOut); err != nil {
			t.Fatal(err)
		}
		if err := scalar.ExhaustivePredictInto(context.Background(), bench, scalarOut); err != nil {
			t.Fatal(err)
		}
		if err := interp.ExhaustivePredictInto(context.Background(), bench, interpOut); err != nil {
			t.Fatal(err)
		}
		for i := range blockedOut {
			if blockedOut[i] != scalarOut[i] || blockedOut[i] != interpOut[i] {
				t.Fatalf("%s flat %d: blocked %+v, scalar %+v, interpreted %+v",
					bench, i, blockedOut[i], scalarOut[i], interpOut[i])
			}
		}
	}
	if st := e.ModelStats(); st.SweptPoints == 0 {
		t.Fatal("default explorer did not use the sweep kernel")
	}
	if st := scalar.ModelStats(); st.SweptPoints == 0 {
		t.Fatal("DisableBlocked explorer did not use the sweep kernel")
	}
	if st := interp.ModelStats(); st.SweptPoints != 0 {
		t.Fatal("DisableCompile explorer used the sweep kernel")
	}
}

// TestSweepGuardCheckRateMatchesScalar pins the guardrail coverage
// contract across sweep kernels: the blocked kernel ticks the guard per
// point (TickCount per chunk), so a full sweep must cross-check the
// same one-in-GuardInterval fraction of points as the scalar compiled
// kernel — within 2x, not collapsed to one check per tile the way a
// whole-tile TickN would.
func TestSweepGuardCheckRateMatchesScalar(t *testing.T) {
	e := testExplorer(t)

	sweep := func(mutate func(*Options)) int64 {
		t.Helper()
		opts := e.Options()
		mutate(&opts)
		ex, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := copyModels(e, ex); err != nil {
			t.Fatal(err)
		}
		out := make([]Prediction, ex.StudySpace.Size())
		if err := ex.ExhaustivePredictInto(context.Background(), "gzip", out); err != nil {
			t.Fatal(err)
		}
		return ex.ModelStats().GuardChecks
	}
	blocked := sweep(func(o *Options) {})
	scalar := sweep(func(o *Options) { o.DisableBlocked = true })

	// 262,500 points at the default interval of 1024 → ~256 checks.
	n := int64(e.StudySpace.Size())
	want := n / eval.DefaultModelGuardInterval
	if blocked < want/2 || blocked > want*2 {
		t.Fatalf("blocked kernel made %d guard checks, want about %d", blocked, want)
	}
	if scalar < want/2 || scalar > want*2 {
		t.Fatalf("scalar kernel made %d guard checks, want about %d", scalar, want)
	}
	if blocked > scalar*2 || scalar > blocked*2 {
		t.Fatalf("guard check rates diverge: blocked %d, scalar %d", blocked, scalar)
	}
}

// TestSimFastPathVsDisabledIdentical compares the simulator's default
// fast path (pooled scratch + memoized outcomes) against the
// DisableFastSim full-warmup path through the public Explorer surface,
// for bit-identical output, and checks the warm memo actually engaged.
func TestSimFastPathVsDisabledIdentical(t *testing.T) {
	opts := DefaultOptions()
	opts.TraceLen = 20000
	opts.Benchmarks = []string{"gzip", "mcf"}
	fast, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisableFastSim = true
	slow, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	space := fast.StudySpace
	points := space.SampleUAR(5, 7)
	for _, bench := range opts.Benchmarks {
		for _, pt := range points {
			cfg := space.Config(pt)
			// Vary width at fixed cache geometry so the fast explorer
			// sees warm-key reuse across distinct requests.
			for _, width := range []int{cfg.Width, cfg.Width * 2} {
				c := cfg
				c.Width = width
				fb, fw, err := fast.Simulate(c, bench)
				if err != nil {
					t.Fatal(err)
				}
				sb, sw, err := slow.Simulate(c, bench)
				if err != nil {
					t.Fatal(err)
				}
				if fb != sb || fw != sw {
					t.Fatalf("%s %v: fast (%v, %v), disabled (%v, %v)",
						bench, c, fb, fw, sb, sw)
				}
			}
		}
	}
	if st := fast.SimStats(); st.WarmHits == 0 {
		t.Fatal("fast explorer recorded no warm hits")
	}
	if st := slow.SimStats(); st.WarmHits != 0 || st.WarmMisses != 0 {
		t.Fatalf("DisableFastSim explorer recorded warm traffic: %d/%d",
			st.WarmHits, st.WarmMisses)
	}
}
