package sim

import (
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// fullRun simulates with the seed path: fresh scratch, full warmup walk.
func fullRun(t *testing.T, cfg arch.Config, tr *trace.Trace) *Result {
	t.Helper()
	var s Scratch
	out := new(Result)
	if err := s.Run(out, cfg, tr); err != nil {
		t.Fatal(err)
	}
	return out
}

func testTrace(t *testing.T, bench string) *trace.Trace {
	t.Helper()
	tr, err := trace.ForBenchmark(bench, testTraceLen)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFastPathGolden pins the fast path to the seed path bit-for-bit:
// for sampled configurations across every benchmark, a Runner (memoized
// outcomes, pooled scratch) must reproduce the full-warmup result
// exactly — same cycles, same activity, same floats.
func TestFastPathGolden(t *testing.T) {
	space := arch.ExplorationSpace()
	points := space.SampleUAR(6, 42)
	r := NewRunner()
	for _, bench := range trace.Benchmarks() {
		tr := testTrace(t, bench)
		for _, p := range points {
			cfg := space.Config(p)
			want := fullRun(t, cfg, tr)
			// Twice per key, once per memo step: the first run warms and
			// records the outcome mask (miss), the second replays the
			// memoized mask (hit); both must match the seed.
			for pass := 0; pass < 2; pass++ {
				got, err := r.Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Fatalf("%s %v pass %d: fast path diverged\n got %+v\nwant %+v",
						bench, cfg, pass, got, want)
				}
			}
		}
	}
	hits, misses := r.WarmStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("warm stats hits=%d misses=%d, want both > 0", hits, misses)
	}
}

// TestWarmStateCrossGeometry interleaves runs with distinct cache
// geometries through one Runner and checks each against a fresh
// full-warmup run: a recorded outcome mask must never leak between
// keys.
func TestWarmStateCrossGeometry(t *testing.T) {
	tr := testTrace(t, "mcf")
	base := arch.Baseline()
	small := base
	small.IL1KB, small.DL1KB, small.L2KB = 16, 8, 256
	large := base
	large.IL1KB, large.DL1KB, large.L2KB, large.DL1Assoc = 256, 128, 4096, 4
	cfgs := []arch.Config{small, base, large, small, large, base, small}

	r := NewRunner()
	for i, cfg := range cfgs {
		want := fullRun(t, cfg, tr)
		got, err := r.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("run %d (%v): recorded outcomes leaked across geometries\n got %+v\nwant %+v",
				i, cfg, got, want)
		}
	}
	hits, _ := r.WarmStats()
	if hits != int64(len(cfgs)-3) {
		t.Fatalf("warm hits = %d, want %d (every revisit of a geometry)", hits, len(cfgs)-3)
	}
}

// TestWarmBudgetFallback pins the over-budget behaviour: with a zero
// budget nothing is memoized — every run warms and records into its
// scratch's own mask and counts as a miss — results are still
// bit-identical to the seed path, the memo holds no bytes, and steady
// state still allocates nothing.
func TestWarmBudgetFallback(t *testing.T) {
	tr := testTrace(t, "gzip")
	cfg := arch.Baseline()
	r := NewRunner()
	r.SetWarmBudget(0)
	want := fullRun(t, cfg, tr)
	for i := 0; i < 3; i++ {
		got, err := r.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("run %d: over-budget path diverged\n got %+v\nwant %+v", i, got, want)
		}
	}
	hits, misses := r.WarmStats()
	if hits != 0 || misses != 3 {
		t.Fatalf("warm stats hits=%d misses=%d, want 0/3 under zero budget", hits, misses)
	}
	if used := r.MemoBytes(); used != 0 {
		t.Fatalf("memo holds %d bytes under zero budget, want 0", used)
	}
	for k, e := range *r.warm.Load() {
		if e.mask != nil {
			t.Fatalf("key %+v memoized a mask under zero budget", k)
		}
	}
	if raceEnabled {
		return // allocation counts are skewed by race-detector instrumentation
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var out Result
	if err := r.RunInto(&out, cfg, tr); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := r.RunInto(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("over-budget RunInto allocates %v per steady-state run, want 0", avg)
	}
}

// TestConcurrentFirstRuns races goroutines on one fresh key: exactly one
// walks the warmup and records the mask, the rest wait for it and replay,
// and every result matches the seed path. Run under -race it also checks
// that publishing the mask through the key's once is properly
// synchronized.
func TestConcurrentFirstRuns(t *testing.T) {
	const goroutines = 8
	tr := testTrace(t, "twolf")
	base := arch.Baseline()
	cfgs := make([]arch.Config, goroutines)
	wants := make([]*Result, goroutines)
	for g := range cfgs {
		// One warm key, distinct timing parameters per goroutine.
		cfgs[g] = base
		cfgs[g].GPR = base.GPR + 10*g
		wants[g] = fullRun(t, cfgs[g], tr)
	}
	r := NewRunner()
	got := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			got[g], errs[g] = r.Run(cfgs[g], tr)
		}(g)
	}
	start.Done()
	done.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if *got[g] != *wants[g] {
			t.Fatalf("goroutine %d diverged from the seed path\n got %+v\nwant %+v", g, got[g], wants[g])
		}
	}
	hits, misses := r.WarmStats()
	if hits != goroutines-1 || misses != 1 {
		t.Fatalf("warm stats hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
}

// TestMemoAccounting pins the budget charge: each memoized key holds one
// mask byte per timed instruction and nothing else, however often the
// key is run.
func TestMemoAccounting(t *testing.T) {
	tr := testTrace(t, "mcf")
	base := arch.Baseline()
	r := NewRunner()
	const keys = 4
	for k := 0; k < keys; k++ {
		cfg := base
		cfg.L2KB = base.L2KB << k
		for pass := 0; pass < 2; pass++ {
			if _, err := r.Run(cfg, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	timed := int64(tr.Len() - warmupLen(tr.Len()))
	if used := r.MemoBytes(); used != keys*timed {
		t.Fatalf("memo holds %d bytes after %d keys, want %d × %d", used, keys, keys, timed)
	}
	if n := len(*r.warm.Load()); n != keys {
		t.Fatalf("memo has %d keys, want %d", n, keys)
	}
}

// TestRunZeroAllocs enforces the PR's core claim: once scratch and warm
// state reach steady state, simulating a run performs zero heap
// allocations — on the Runner fast path, the package Run path, and the
// caller-owned-Scratch path alike. GC is disabled for the measurement so
// a collection cannot clear the sync.Pool mid-run and charge the refill
// to us.
func TestRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race-detector instrumentation")
	}
	tr := testTrace(t, "gcc")
	cfg := arch.Baseline()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	r := NewRunner()
	var out Result
	// Warm the pool, the memo and the scratch arrays.
	for i := 0; i < 3; i++ {
		if err := r.RunInto(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := r.RunInto(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Runner.RunInto allocates %v per steady-state run, want 0", avg)
	}

	var s Scratch
	if err := s.Run(&out, cfg, tr); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := s.Run(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Scratch.Run allocates %v per steady-state run, want 0", avg)
	}

	if err := RunInto(&out, cfg, tr); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() {
		if err := RunInto(&out, cfg, tr); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("RunInto allocates %v per steady-state run, want 0", avg)
	}
}

// BenchmarkRunnerWarm measures the fast path in steady state (warm memo
// hit, pooled scratch).
func BenchmarkRunnerWarm(b *testing.B) {
	tr, err := trace.ForBenchmark("gzip", testTraceLen)
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.Baseline()
	r := NewRunner()
	var out Result
	if err := r.RunInto(&out, cfg, tr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RunInto(&out, cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplayAcrossConfigs pins the property the replay tier rests on:
// cache and predictor outcomes recorded under one configuration replay
// bit-identically under configurations with different widths, depths,
// latencies, pools and queues, as long as the warm key (trace, cache
// geometry) matches. Every run after the first replays the mask the
// first config's run recorded.
func TestReplayAcrossConfigs(t *testing.T) {
	tr := testTrace(t, "gcc")
	base := arch.Baseline()
	wide := base
	wide.Width, wide.FUPerKind, wide.LSQ, wide.SQ = base.Width*2, base.FUPerKind*2, base.LSQ*2, base.SQ*2
	deep := base
	deep.DepthFO4 = 12
	deep.GPR, deep.FPR = base.GPR+30, base.FPR+30

	r := NewRunner()
	for i, cfg := range []arch.Config{base, wide, deep, base} {
		want := fullRun(t, cfg, tr)
		got, err := r.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("run %d (%v): replayed outcomes diverged from the seed path\n got %+v\nwant %+v",
				i, cfg, got, want)
		}
	}
	hits, misses := r.WarmStats()
	if hits != 3 || misses != 1 {
		t.Fatalf("warm stats hits=%d misses=%d, want 3/1 (one key, four configs)", hits, misses)
	}
}

// TestMaskBudgetFallback pins a partly exhausted budget: a budget that
// fits exactly one key's outcome mask memoizes the first key, whose
// later runs replay it, while a second key overflows and every one of
// its runs warms and records its own mask. Both keys stay bit-identical
// to the seed path, and the rejected charge is given back so the
// accounting does not drift.
func TestMaskBudgetFallback(t *testing.T) {
	tr := testTrace(t, "gzip")
	base := arch.Baseline()
	other := base
	other.L2KB = base.L2KB << 1
	size := int64(tr.Len() - warmupLen(tr.Len()))

	r := NewRunner()
	r.SetWarmBudget(size) // one mask fits exactly; a second overflows
	for _, cfg := range []arch.Config{base, other} {
		want := fullRun(t, cfg, tr)
		for i := 0; i < 3; i++ {
			got, err := r.Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("L2 %d KB run %d: partial-budget path diverged\n got %+v\nwant %+v",
					cfg.L2KB, i, got, want)
			}
		}
	}
	// First key: 1 miss then 2 hits; second key: 3 misses.
	hits, misses := r.WarmStats()
	if hits != 2 || misses != 4 {
		t.Fatalf("warm stats hits=%d misses=%d, want 2/4", hits, misses)
	}
	memo := *r.warm.Load()
	if e, ok := memo[warmKey{tr, base.IL1KB, base.DL1KB, DL1Assoc, base.L2KB}]; !ok || e.mask == nil {
		t.Fatal("first key's outcome mask was not memoized within budget")
	}
	if e, ok := memo[warmKey{tr, other.IL1KB, other.DL1KB, DL1Assoc, other.L2KB}]; ok && e.mask != nil {
		t.Fatal("second key memoized a mask despite exhausted budget")
	}
	if used := r.MemoBytes(); used != size {
		t.Fatalf("budget accounting drifted: used %d, want %d", used, size)
	}
}
