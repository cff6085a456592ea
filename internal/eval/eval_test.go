package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/regression"
	"repro/internal/trace"
)

// TestSimulatorDistinctBenchmarksSynthesizeConcurrently is the
// regression test for traceFor holding the Simulator mutex across trace
// synthesis: first-touch synthesis of one benchmark must not serialize
// first-touch synthesis of a different benchmark.
func TestSimulatorDistinctBenchmarksSynthesizeConcurrently(t *testing.T) {
	skipUnderFaultPlan(t)
	s := NewSimulator(1000)
	slowStarted := make(chan struct{})
	release := make(chan struct{})
	s.synth = func(bench string, n int) (*trace.Trace, error) {
		if bench == "slow" {
			close(slowStarted)
			<-release
		}
		return &trace.Trace{Name: bench}, nil
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.traceFor("slow")
		done <- err
	}()
	<-slowStarted

	// With "slow" still synthesizing, "fast" must synthesize and return.
	fastDone := make(chan error, 1)
	go func() {
		tr, err := s.traceFor("fast")
		if err == nil && tr.Name != "fast" {
			err = fmt.Errorf("got trace %q", tr.Name)
		}
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("synthesis of a distinct benchmark blocked behind an in-flight one")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSimulatorSynthesisOncePerBenchmark(t *testing.T) {
	skipUnderFaultPlan(t)
	s := NewSimulator(1000)
	var calls atomic.Int64
	s.synth = func(bench string, n int) (*trace.Trace, error) {
		calls.Add(1)
		time.Sleep(2 * time.Millisecond) // widen the race window
		if bench == "bad" {
			return nil, errors.New("synthetic failure")
		}
		return &trace.Trace{Name: bench}, nil
	}

	const callers = 24
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := s.traceFor("gzip")
			if err == nil && tr.Name != "gzip" {
				err = fmt.Errorf("wrong trace %q", tr.Name)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("synthesis ran %d times for one benchmark, want 1", got)
	}

	// Errors are NOT memoized: a failed synthesis drops its entry so the
	// next call retries — transient failures (injected or real) must not
	// poison the benchmark forever.
	for i := 0; i < 3; i++ {
		if _, err := s.traceFor("bad"); err == nil {
			t.Fatal("failed synthesis reported success")
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("failed synthesis ran %d times, want one per call (3)", got-1)
	}
}

// fitTestModels fits small but real performance and power models over
// the arch predictor layout, for backend tests that need genuine
// regression models without running the simulator.
func fitTestModels(t *testing.T) (perf, pow *regression.Model, space *arch.Space) {
	t.Helper()
	space = arch.ExplorationSpace()
	pts := space.SampleUAR(400, 42)
	names := arch.PredictorNames()
	n := len(pts)
	cols := make([][]float64, len(names))
	for i := range cols {
		cols[i] = make([]float64, n)
	}
	bips := make([]float64, n)
	watts := make([]float64, n)
	for i, pt := range pts {
		vals := arch.Predictors(space.Config(pt))
		for c := range names {
			cols[c][i] = vals[c]
		}
		// Smooth positive responses with curvature and an interaction,
		// so splines and products carry signal.
		depth, width, dl1 := vals[0], vals[1], vals[5]
		bips[i] = 40/depth + 0.3*width + 0.05*dl1 + 0.01*depth*dl1
		watts[i] = 20 + 2*width + 0.5*dl1 + 100/depth
	}
	ds := regression.NewDataset(n)
	for c, name := range names {
		ds.AddColumn(name, cols[c])
	}
	ds.AddColumn("bips", bips)
	ds.AddColumn("watts", watts)
	mk := func(resp string, tr regression.Transform) *regression.Model {
		spec := regression.NewSpec(resp, tr).
			Spline(arch.PredDepth, 4).
			Linear(arch.PredWidth).
			Spline(arch.PredDL1, 3).
			Spline(arch.PredL2, 3).
			Interact(arch.PredDepth, arch.PredDL1)
		m, err := regression.Fit(spec, ds)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return mk("bips", regression.Sqrt), mk("watts", regression.Log), space
}

func TestCompiledPairMatchesInterpreted(t *testing.T) {
	perf, pow, space := fitTestModels(t)
	pair, err := CompilePair(perf, pow, space)
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Perf().Leveled() || !pair.Pow().Leveled() {
		t.Fatal("pair not fully leveled against the space")
	}
	var scratch PairScratch
	for _, pt := range space.SampleUAR(500, 7) {
		cfg := space.Config(pt)
		get := arch.PredictorGetter(cfg)
		wantB, wantW := perf.Predict(get), pow.Predict(get)
		if b, w := pair.EvalConfig(cfg, &scratch); b != wantB || w != wantW {
			t.Fatalf("EvalConfig(%v) = (%v, %v), want (%v, %v)", cfg, b, w, wantB, wantW)
		}
		if b, w := pair.EvalLevels(pt[:], &scratch); b != wantB || w != wantW {
			t.Fatalf("EvalLevels(%v) = (%v, %v), want (%v, %v)", pt, b, w, wantB, wantW)
		}
	}
	// Off-grid configurations go through the value path.
	cfg := arch.Baseline() // depth 19 is not an exploration-space level
	get := arch.PredictorGetter(cfg)
	wantB, wantW := perf.Predict(get), pow.Predict(get)
	if b, w := pair.EvalConfig(cfg, &scratch); b != wantB || w != wantW {
		t.Fatalf("off-grid EvalConfig = (%v, %v), want (%v, %v)", b, w, wantB, wantW)
	}
}

func TestModelsResolutionHoisted(t *testing.T) {
	perf, pow, _ := fitTestModels(t)
	var lookups atomic.Int64
	m := NewModels(func(bench string) (*regression.Model, *regression.Model, error) {
		if bench == "nope" {
			return nil, nil, errors.New("unknown benchmark")
		}
		lookups.Add(1)
		return perf, pow, nil
	})
	cfgs := make([]arch.Config, 64)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	for _, cfg := range cfgs {
		if _, _, err := m.Evaluate(cfg, "gzip"); err != nil {
			t.Fatal(err)
		}
	}
	if got := lookups.Load(); got != 1 {
		t.Fatalf("%d lookups for a 64-prediction single-benchmark batch, want 1", got)
	}
	if _, _, err := m.Evaluate(cfgs[0], "mcf"); err != nil {
		t.Fatal(err)
	}
	if got := lookups.Load(); got != 2 {
		t.Fatalf("%d lookups after benchmark switch, want 2", got)
	}
	// Failed resolutions must not be cached...
	if _, _, err := m.Evaluate(cfgs[0], "nope"); err == nil {
		t.Fatal("unknown benchmark succeeded")
	}
	// ...and must not evict the last good resolution.
	if _, _, err := m.Evaluate(cfgs[0], "mcf"); err != nil {
		t.Fatal(err)
	}
	if got := lookups.Load(); got != 2 {
		t.Fatalf("%d lookups after failed resolve, want still 2", got)
	}
	// Reset forces a re-resolve (models swapped underneath).
	m.Reset()
	if _, _, err := m.Evaluate(cfgs[0], "mcf"); err != nil {
		t.Fatal(err)
	}
	if got := lookups.Load(); got != 3 {
		t.Fatalf("%d lookups after Reset, want 3", got)
	}
}

func TestModelsCompiledLookupPreferred(t *testing.T) {
	perf, pow, space := fitTestModels(t)
	pair, err := CompilePair(perf, pow, space)
	if err != nil {
		t.Fatal(err)
	}
	var interpLookups, compiledLookups atomic.Int64
	m := NewModels(func(bench string) (*regression.Model, *regression.Model, error) {
		interpLookups.Add(1)
		return perf, pow, nil
	})
	m.LookupCompiled = func(bench string) (*CompiledPair, error) {
		compiledLookups.Add(1)
		if bench == "fallback" {
			return nil, nil
		}
		return pair, nil
	}
	cfg := space.Config(arch.Point{1, 1, 1, 1, 1, 1, 1})
	get := arch.PredictorGetter(cfg)
	wantB, wantW := perf.Predict(get), pow.Predict(get)
	b, w, err := m.Evaluate(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if b != wantB || w != wantW {
		t.Fatalf("compiled Evaluate = (%v, %v), want (%v, %v)", b, w, wantB, wantW)
	}
	// The interpreted models are resolved once alongside the pair — they
	// are the guardrail's reference and the degraded fallback — but
	// resolution is memoized per benchmark, not per prediction.
	if interpLookups.Load() != 1 {
		t.Fatalf("compiled resolution ran the interpreted lookup %d times, want 1", interpLookups.Load())
	}
	if _, _, err := m.Evaluate(cfg, "gzip"); err != nil {
		t.Fatal(err)
	}
	if interpLookups.Load() != 1 {
		t.Fatalf("re-evaluation re-ran the interpreted lookup (%d)", interpLookups.Load())
	}
	// A nil pair falls back to the interpreted models.
	if b, w, err = m.Evaluate(cfg, "fallback"); err != nil {
		t.Fatal(err)
	}
	if b != wantB || w != wantW {
		t.Fatalf("fallback Evaluate = (%v, %v), want (%v, %v)", b, w, wantB, wantW)
	}
	if interpLookups.Load() != 2 {
		t.Fatalf("fallback did not use the interpreted lookup (%d)", interpLookups.Load())
	}
}

func TestSweepCoversRangeExactlyOnce(t *testing.T) {
	ev := &countingEvaluator{}
	e := NewEngine(ev, Options{Workers: 7})
	const n = 10_001
	marks := make([]atomic.Int32, n)
	err := e.Sweep(context.Background(), n, func(lo, hi int) error {
		if lo < 0 || hi > n || lo >= hi {
			return fmt.Errorf("bad tile [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			marks[i].Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range marks {
		if got := marks[i].Load(); got != 1 {
			t.Fatalf("index %d evaluated %d times", i, got)
		}
	}
	st := e.Stats()
	if st.SweptPoints != n {
		t.Fatalf("SweptPoints = %d, want %d", st.SweptPoints, n)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.Evaluations != 0 {
		t.Fatalf("sweep touched the cache/backend counters: %+v", st)
	}
}

func TestSweepHonorsTileOption(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{Workers: 3, Tile: 250})
	const n = 1_100 // 4 full tiles + a 100-point remainder
	var mu sync.Mutex
	var sizes []int
	marks := make([]atomic.Int32, n)
	err := e.Sweep(context.Background(), n, func(lo, hi int) error {
		mu.Lock()
		sizes = append(sizes, hi-lo)
		mu.Unlock()
		for i := lo; i < hi; i++ {
			marks[i].Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range marks {
		if got := marks[i].Load(); got != 1 {
			t.Fatalf("index %d evaluated %d times", i, got)
		}
	}
	sort.Ints(sizes)
	if want := []int{100, 250, 250, 250, 250}; !slices.Equal(sizes, want) {
		t.Fatalf("tile sizes = %v, want %v", sizes, want)
	}
}

func TestSweepZeroAndSmall(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{Workers: 4})
	if err := e.Sweep(context.Background(), 0, func(lo, hi int) error {
		t.Fatal("tile for empty sweep")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	if err := e.Sweep(context.Background(), 3, func(lo, hi int) error {
		count.Add(int64(hi - lo))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 3 {
		t.Fatalf("small sweep covered %d of 3", count.Load())
	}
}

func TestSweepErrorCancelsPromptly(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{Workers: 4})
	boom := errors.New("boom")
	var tiles atomic.Int64
	err := e.Sweep(context.Background(), 1_000_000, func(lo, hi int) error {
		if tiles.Add(1) == 1 {
			return boom
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Cancellation is observed between tiles: far fewer than the full
	// range's tile count should have run.
	total := int64(1_000_000/64 + 1)
	if got := tiles.Load(); got >= total {
		t.Fatalf("%d tiles ran after the error, no cancellation", got)
	}
}

func TestSweepRespectsContextAndClose(t *testing.T) {
	e := NewEngine(&countingEvaluator{}, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Sweep(ctx, 100, func(lo, hi int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v", err)
	}
	e.Close()
	if err := e.Sweep(context.Background(), 100, func(lo, hi int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine sweep returned %v", err)
	}
}
