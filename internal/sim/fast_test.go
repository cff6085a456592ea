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
			// Twice per key, once per memo step: the first run builds the
			// outcome mask from the streams (miss), the second replays the
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
// budget nothing is memoized — every run walks its streams and builds
// its mask in its scratch's own buffers and counts as a miss — results
// are still bit-identical to the seed path, the memo holds no bytes,
// neither masks nor streams, and steady state still allocates nothing.
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
	if used, st := r.MemoBytes(), r.StreamBytes(); used != 0 || st != 0 {
		t.Fatalf("memo holds %d bytes (%d in streams) under zero budget, want 0", used, st)
	}
	for k, e := range r.warm.all() {
		if e.mask != nil {
			t.Fatalf("key %+v memoized a mask under zero budget", k)
		}
	}
	for k, e := range r.streams.all() {
		if e.st != nil {
			t.Fatalf("stream %+v memoized under zero budget", k)
		}
	}
	// Every run walks its own three streams.
	if w := r.walks.Load(); w != 3*numStreams {
		t.Fatalf("%d stream walks over 3 zero-budget runs, want %d", w, 3*numStreams)
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
// walks the key's streams and builds its mask, the rest wait for it and
// replay, and every result matches the seed path. Run under -race it also checks
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
	if w := r.walks.Load(); w != numStreams {
		t.Fatalf("%d stream walks, want %d", w, numStreams)
	}
}

// TestMemoAccounting pins the budget charge: each memoized key holds one
// mask byte per timed instruction, each memoized stream four bytes per
// listed index, and nothing else, however often the key is run. Keys
// that differ only in their L2 share all three streams, walked once.
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
	var streamBytes int64
	for k, e := range r.streams.all() {
		if e.st == nil {
			t.Fatalf("stream %+v not memoized within budget", k)
		}
		streamBytes += e.st.bytes()
	}
	if n := len(r.streams.all()); n != numStreams {
		t.Fatalf("memo has %d streams, want %d (one per structure)", n, numStreams)
	}
	if w := r.walks.Load(); w != numStreams {
		t.Fatalf("%d stream walks, want %d", w, numStreams)
	}
	if streamBytes == 0 || r.StreamBytes() != streamBytes {
		t.Fatalf("StreamBytes = %d, streams hold %d, want equal and > 0", r.StreamBytes(), streamBytes)
	}
	timed := int64(tr.Len() - warmupLen(tr.Len()))
	if used := r.MemoBytes(); used != keys*timed+streamBytes {
		t.Fatalf("memo holds %d bytes after %d keys, want %d × %d + %d stream bytes",
			used, keys, keys, timed, streamBytes)
	}
	if n := len(r.warm.all()); n != keys {
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

// TestMaskBudgetFallback pins a partly exhausted budget, in two steps.
// A budget that fits exactly one key's outcome mask memoizes the first
// key's mask, whose later runs replay it, but none of its streams; a
// second key overflows and every one of its runs walks its own streams
// and builds its own mask. A budget that also fits the first key's
// streams memoizes them, and the second key — which differs only in its
// L2 — builds its mask from them on every run without walking again.
// Both keys stay bit-identical to the seed path throughout, and
// rejected charges are given back so the accounting does not drift.
func TestMaskBudgetFallback(t *testing.T) {
	tr := testTrace(t, "gzip")
	base := arch.Baseline()
	other := base
	other.L2KB = base.L2KB << 1
	size := int64(tr.Len() - warmupLen(tr.Len()))
	full := NewRunner()
	if _, err := full.Run(base, tr); err != nil {
		t.Fatal(err)
	}
	streamBytes := full.StreamBytes()

	for _, tc := range []struct {
		budget, wantUsed, wantWalks int64
	}{
		// First key: 3 local walks in its first run; second key: 3 per run.
		{budget: size, wantUsed: size, wantWalks: 4 * numStreams},
		// Each stream walked once, by the first key.
		{budget: size + streamBytes, wantUsed: size + streamBytes, wantWalks: numStreams},
	} {
		r := NewRunner()
		r.SetWarmBudget(tc.budget)
		for _, cfg := range []arch.Config{base, other} {
			want := fullRun(t, cfg, tr)
			for i := 0; i < 3; i++ {
				got, err := r.Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Fatalf("budget %d, L2 %d KB run %d: partial-budget path diverged\n got %+v\nwant %+v",
						tc.budget, cfg.L2KB, i, got, want)
				}
			}
		}
		// First key: 1 miss then 2 hits; second key: 3 misses.
		hits, misses := r.WarmStats()
		if hits != 2 || misses != 4 {
			t.Fatalf("budget %d: warm stats hits=%d misses=%d, want 2/4", tc.budget, hits, misses)
		}
		memo := r.warm.all()
		if e, ok := memo[warmKey{tr, base.IL1KB, base.DL1KB, DL1Assoc, base.L2KB}]; !ok || e.mask == nil {
			t.Fatalf("budget %d: first key's outcome mask was not memoized within budget", tc.budget)
		}
		if e, ok := memo[warmKey{tr, other.IL1KB, other.DL1KB, DL1Assoc, other.L2KB}]; ok && e.mask != nil {
			t.Fatalf("budget %d: second key memoized a mask despite exhausted budget", tc.budget)
		}
		if used := r.MemoBytes(); used != tc.wantUsed {
			t.Fatalf("budget %d: accounting drifted: used %d, want %d", tc.budget, used, tc.wantUsed)
		}
		if w := r.walks.Load(); w != tc.wantWalks {
			t.Fatalf("budget %d: %d stream walks, want %d", tc.budget, w, tc.wantWalks)
		}
	}
}

// cacheGeometries returns every (IL1, DL1, L2) capacity combination of
// the exploration space on top of the baseline, L2 innermost so that
// consecutive keys share their L1 streams.
func cacheGeometries() []arch.Config {
	space := arch.ExplorationSpace()
	levels := space.Levels()
	var cfgs []arch.Config
	p := arch.BaselinePoint(space)
	for i := 0; i < levels[arch.AxisIL1]; i++ {
		for d := 0; d < levels[arch.AxisDL1]; d++ {
			for l := 0; l < levels[arch.AxisL2]; l++ {
				p[arch.AxisIL1], p[arch.AxisDL1], p[arch.AxisL2] = i, d, l
				cfgs = append(cfgs, space.Config(p))
			}
		}
	}
	return cfgs
}

// TestAllGeometriesGolden runs every cache geometry of the design space
// through one fresh Runner, for two traces of the same length, and pins
// every run to the seed path bit-for-bit. Within a trace the 125 keys
// share 11 streams (5 IL1, 5 DL1, 1 BHT), each walked once; the second
// trace interleaves with the first, so a stream reused across traces
// would diverge.
func TestAllGeometriesGolden(t *testing.T) {
	cfgs := cacheGeometries()
	if len(cfgs) != 125 {
		t.Fatalf("%d cache geometries, want 125", len(cfgs))
	}
	trs := []*trace.Trace{testTrace(t, "gcc"), testTrace(t, "mcf")}
	r := NewRunner()
	var s Scratch
	var want Result
	for _, cfg := range cfgs {
		for _, tr := range trs {
			if err := s.Run(&want, cfg, tr); err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if *got != want {
				t.Fatalf("%s %dK/%dK/%dK: fast path diverged\n got %+v\nwant %+v",
					tr.Name, cfg.IL1KB, cfg.DL1KB, cfg.L2KB, got, &want)
			}
		}
	}
	const perTrace = 5 + 5 + 1
	if n := len(r.streams.all()); n != perTrace*len(trs) {
		t.Fatalf("memo has %d streams, want %d", n, perTrace*len(trs))
	}
	if w := r.walks.Load(); w != perTrace*int64(len(trs)) {
		t.Fatalf("%d stream walks, want %d (each stream once)", w, perTrace*len(trs))
	}
}

// TestConcurrentSharedStreams races eight goroutines on eight distinct
// warm keys that share one IL1 stream (and, pairwise, DL1 streams and
// the BHT stream): each stream is walked exactly once, every key's mask
// is built exactly once, and every result matches sim.Run. Run under
// -race it also checks that publishing streams through their onces is
// properly synchronized.
func TestConcurrentSharedStreams(t *testing.T) {
	const goroutines = 8
	tr := testTrace(t, "jbb")
	base := arch.Baseline()
	cfgs := make([]arch.Config, goroutines)
	wants := make([]*Result, goroutines)
	for g := range cfgs {
		cfgs[g] = base
		cfgs[g].DL1KB = 16 << (g % 2)
		cfgs[g].L2KB = 256 << (g / 2)
		var err error
		if wants[g], err = Run(cfgs[g], tr); err != nil {
			t.Fatal(err)
		}
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
			t.Fatalf("goroutine %d diverged from sim.Run\n got %+v\nwant %+v", g, got[g], wants[g])
		}
	}
	// One IL1, two DL1 and one BHT stream.
	const streams = 4
	if n := len(r.streams.all()); n != streams {
		t.Fatalf("memo has %d streams, want %d", n, streams)
	}
	if w := r.walks.Load(); w != streams {
		t.Fatalf("%d stream walks, want %d (each stream once)", w, streams)
	}
	if hits, misses := r.WarmStats(); hits != 0 || misses != goroutines {
		t.Fatalf("warm stats hits=%d misses=%d, want 0/%d", hits, misses, goroutines)
	}
}

// TestSameInstructionMissOrder pins the L2 order within one instruction:
// its fetch reaches the L2 before its data access, as in the reference
// kernel. Each load of a synthetic straight-line trace reads the block
// that holds its own code, and the code footprint outruns every cache,
// so in the timed region both the fetch and the load miss their L1s on
// the same block: the fetch must take the L2 miss and the load hit the
// block the fetch just filled. The synthesized benchmarks never share a
// block between code and data, so only this trace tells the orders
// apart.
func TestSameInstructionMissOrder(t *testing.T) {
	tr := selfReadingTrace()
	cfg := arch.Baseline()
	want := fullRun(t, cfg, tr)
	if want.Activity.IL1Miss == 0 || want.Activity.DL1Miss == 0 {
		t.Fatalf("trace exercises no same-instruction misses: %+v", want.Activity)
	}
	got, err := NewRunner().Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("fast path diverged on same-block fetch and load\n got %+v\nwant %+v", got, want)
	}
}

// selfReadingTrace returns a synthetic trace of loads that each read
// their own code block, with a code footprint that outruns every cache.
func selfReadingTrace() *trace.Trace {
	const n = 20000
	tr := &trace.Trace{Name: "self-reading", Insts: make([]trace.Inst, n)}
	for i := range tr.Insts {
		pc := uint32(i) * trace.BlockBytes
		tr.Insts[i] = trace.Inst{PC: pc, Addr: pc + 8, Kind: trace.OpLoad}
	}
	return tr
}
