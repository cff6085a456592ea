// Package repro's top-level benchmark harness regenerates every table and
// figure of the paper's evaluation. Each benchmark reproduces one
// artifact and logs the rendered table or figure on its first iteration,
// so
//
//	go test -bench=. -benchmem
//
// both measures the cost of each analysis and reprints the paper.
//
// The default training budget is reduced so the full harness completes in
// minutes on a laptop; pass -paperbudget to use the paper's full
// configuration (1,000 training samples, 100 validation designs,
// 100k-instruction traces).
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/eval"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/regression"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

var (
	paperBudget = flag.Bool("paperbudget", false,
		"use the paper's full budget (1000 samples, 100 validation designs, 100k traces)")
	quietFigures = flag.Bool("quietfigures", false,
		"suppress rendered tables and figures in benchmark logs")
	scaleGate = flag.Bool("scalegate", false,
		"fail the sweep benchmark if 2-worker parallel efficiency < 1.5x (skipped on single-CPU hosts)")
	guardGate = flag.Bool("guardgate", false,
		"fail the sweep benchmark if the guardrail's paired overhead exceeds the 8% budget (DESIGN.md §11)")
)

func benchOptions() core.Options {
	opts := core.DefaultOptions()
	if !*paperBudget {
		opts.TrainSamples = 300
		opts.ValidationSamples = 60
		opts.TraceLen = 40000
	}
	return opts
}

// The heavy fixtures are shared across benchmarks: one trained explorer,
// one validation report, and one result set per study.
var (
	fixtureOnce sync.Once
	fixture     struct {
		explorer   *core.Explorer
		validation *core.ValidationReport
		pareto     map[string]*paretostudy.Result
		depth      map[string]*depthstudy.Result
		depthAvg   *depthstudy.SuiteAverage
		hetero     *heterostudy.Result
		err        error
	}
)

func sharedFixture(b *testing.B) *core.Explorer {
	b.Helper()
	fixtureOnce.Do(func() {
		e, err := core.New(benchOptions())
		if err != nil {
			fixture.err = err
			return
		}
		if err := e.Train(); err != nil {
			fixture.err = err
			return
		}
		fixture.explorer = e
	})
	if fixture.err != nil {
		b.Fatal(fixture.err)
	}
	return fixture.explorer
}

func logFigure(b *testing.B, s string) {
	if !*quietFigures {
		b.Logf("\n%s", s)
	}
}

// BenchmarkTable1DesignSpace measures enumerating and sampling the
// paper's Table 1 design space: 375,000 configurations resolved from the
// seven coupled parameter groups.
func BenchmarkTable1DesignSpace(b *testing.B) {
	space := arch.TableOneSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := space.SampleUAR(1000, uint64(i))
		var checksum int
		for _, p := range points {
			checksum += space.Config(p).DepthFO4
		}
		if checksum == 0 {
			b.Fatal("impossible checksum")
		}
	}
	b.StopTimer()
	logFigure(b, fmt.Sprintf(
		"Table 1: sampling space %d designs (10x3x10x10x5x5x5), exploration space %d designs",
		space.Size(), arch.ExplorationSpace().Size()))
}

// BenchmarkFigure1ValidationError reproduces the model validation of
// Section 3.4: error distributions for random designs.
func BenchmarkFigure1ValidationError(b *testing.B) {
	e := sharedFixture(b)
	b.ResetTimer()
	var rep *core.ValidationReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = e.Validate(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fixture.validation = rep
	logFigure(b, report.Figure1(rep))
}

func paretoResults(b *testing.B) map[string]*paretostudy.Result {
	b.Helper()
	e := sharedFixture(b)
	if fixture.pareto == nil {
		res, err := paretostudy.RunSuite(e, paretostudy.Options{
			DelayTargets:     40,
			SimulateFrontier: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		fixture.pareto = res
	}
	return fixture.pareto
}

// BenchmarkFigure2Characterization measures the exhaustive regression
// evaluation of the 262,500-point space (the paper's full-space
// delay-power scatter).
func BenchmarkFigure2Characterization(b *testing.B) {
	e := sharedFixture(b)
	results := paretoResults(b)
	perf, pow, err := e.Models("mcf")
	if err != nil {
		b.Fatal(err)
	}
	space := e.StudySpace
	vals := make([]float64, len(arch.PredictorNames()))
	get := func(name string) float64 { return vals[arch.PredictorIndex(name)] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Evaluate both models over all 262,500 designs — the genuine
		// sweep, bypassing the explorer's per-benchmark cache.
		var sink float64
		for idx := 0; idx < space.Size(); idx++ {
			arch.PredictorsInto(space.Config(space.PointAt(idx)), vals)
			sink += perf.Predict(get) + pow.Predict(get)
		}
		if sink <= 0 {
			b.Fatal("sweep produced nothing")
		}
	}
	b.StopTimer()
	for _, bench := range []string{"ammp", "mcf"} {
		if r, ok := results[bench]; ok {
			logFigure(b, report.Figure2(e.StudySpace, r))
		}
	}
}

// BenchmarkExhaustivePredictParallel measures the 262,500-point
// exhaustive sweep as a worker-scaling curve (1, 2 and 4 workers) on all
// three prediction paths: the blocked structure-of-arrays sweep kernel
// (the default), the scalar compiled kernel (DisableBlocked) and the
// interpreted per-request path (DisableCompile). Every (path, workers)
// combination must produce bit-identical predictions. The measured rates
// are written to BENCH_sweep.json at the repo root, including num_cpu,
// the blocked kernel's 2-worker parallel efficiency
// (parallel_efficiency_2w), the blocked-over-scalar speedup
// (blocked_speedup), the compiled-over-interpreted speedup at the
// highest worker count and the overheads of the two always-on
// safety/visibility layers: the fast-path guardrail
// (guard_overhead_pct, budget <= 8% — see the guard-pair comment) and
// span tracing
// (obs_on_overhead_pct). With -scalegate the benchmark fails if the
// 2-worker parallel efficiency drops below 1.5x — the regression gate CI
// runs on multi-core hosts; a single-CPU host cannot express parallel
// speedup, so there the gate is skipped and recorded as such. With
// -guardgate it fails if the guardrail overhead exceeds its 8% budget
// (that gate never skips: the pair shares whatever host it gets). It also
// reports the simulation engine's cache hit rate, the other lever that
// makes the studies cheap (they revisit the same designs repeatedly).
func BenchmarkExhaustivePredictParallel(b *testing.B) {
	e := sharedFixture(b)
	// Share the fixture's trained models across sub-benchmarks so each
	// measures only the sweep.
	var models bytes.Buffer
	if err := e.SaveModels(&models); err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	type rateKey struct {
		Path    string
		Workers int
	}
	// The framework reruns each sub-benchmark with growing b.N until the
	// benchtime is met; keep only the final (largest-N) measurement.
	measured := make(map[rateKey]float64)
	var order []rateKey
	var baseline []core.Prediction
	sweepBench := func(path string, workers int, disableCompile, disableBlocked bool, guardInterval int64) func(b *testing.B) {
		return func(b *testing.B) {
			opts := benchOptions()
			opts.Workers = workers
			opts.DisableCompile = disableCompile
			opts.DisableBlocked = disableBlocked
			opts.GuardInterval = guardInterval
			ex, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := ex.LoadModels(bytes.NewReader(models.Bytes())); err != nil {
				b.Fatal(err)
			}
			out := make([]core.Prediction, ex.StudySpace.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ex.ExhaustivePredictInto(context.Background(), "mcf", out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perSec := float64(len(out)*b.N) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "predictions/s")
			k := rateKey{Path: path, Workers: workers}
			if _, ok := measured[k]; !ok {
				order = append(order, k)
			}
			measured[k] = perSec
			if baseline == nil {
				baseline = append([]core.Prediction(nil), out...)
			} else {
				for i := range out {
					if out[i] != baseline[i] {
						b.Fatalf("path=%s workers=%d: prediction %d = %+v diverges from baseline %+v",
							path, workers, i, out[i], baseline[i])
					}
				}
			}
		}
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("path=blocked/workers=%d", workers),
			sweepBench("blocked", workers, false, false, 0))
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("path=compiled/workers=%d", workers),
			sweepBench("compiled", workers, false, true, 0))
	}
	// Guardrail overhead on the default (blocked) path, measured paired:
	// each iteration runs one guarded (default interval) and one
	// guard-free (GuardInterval < 0) sweep back to back on two otherwise
	// identical explorers, timing each side separately. Machine drift —
	// frequency scaling, shared-CPU noise — hits both sides of every
	// iteration equally, so the rate ratio isolates the guardrail's
	// sampling cost, recorded as guard_overhead_pct. The guard's
	// *rate* is the pinned contract (one cross-check per GuardInterval
	// points, however the sweep is chunked); its *relative* overhead
	// therefore scales with kernel speed — ~0.6% against the scalar
	// kernel, ~5% against the 3x-faster blocked kernel, because each
	// check still costs one interpreted prediction. Budget: <= 8%.
	// Both sides must stay bit-identical to the baseline.
	noguardWorkers := counts[len(counts)-1]
	b.Run(fmt.Sprintf("path=guard-pair/workers=%d", noguardWorkers), func(b *testing.B) {
		mk := func(guardInterval int64) *core.Explorer {
			opts := benchOptions()
			opts.Workers = noguardWorkers
			opts.GuardInterval = guardInterval
			ex, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := ex.LoadModels(bytes.NewReader(models.Bytes())); err != nil {
				b.Fatal(err)
			}
			return ex
		}
		guarded, unguarded := mk(0), mk(-1)
		outG := make([]core.Prediction, guarded.StudySpace.Size())
		outN := make([]core.Prediction, guarded.StudySpace.Size())
		var tG, tN time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := guarded.ExhaustivePredictInto(context.Background(), "mcf", outG); err != nil {
				b.Fatal(err)
			}
			tG += time.Since(t0)
			t0 = time.Now()
			if err := unguarded.ExhaustivePredictInto(context.Background(), "mcf", outN); err != nil {
				b.Fatal(err)
			}
			tN += time.Since(t0)
		}
		b.StopTimer()
		for _, side := range []struct {
			path string
			out  []core.Prediction
		}{{"blocked-guarded", outG}, {"blocked-noguard", outN}} {
			if baseline == nil {
				continue
			}
			for i := range side.out {
				if side.out[i] != baseline[i] {
					b.Fatalf("path=%s: prediction %d = %+v diverges from baseline %+v",
						side.path, i, side.out[i], baseline[i])
				}
			}
		}
		points := float64(len(outG) * b.N)
		kG := rateKey{Path: "blocked-guarded", Workers: noguardWorkers}
		kN := rateKey{Path: "blocked-noguard", Workers: noguardWorkers}
		for _, k := range []rateKey{kG, kN} {
			if _, ok := measured[k]; !ok {
				order = append(order, k)
			}
		}
		measured[kG] = points / tG.Seconds()
		measured[kN] = points / tN.Seconds()
		b.ReportMetric(100*(1-tN.Seconds()/tG.Seconds()), "guard-overhead-%")
	})
	// Observability overhead on the default (blocked) path, measured
	// paired exactly like the guardrail: each iteration runs one traced
	// sweep (spans, per-tile latency histograms, progress ticker all on)
	// and one untraced sweep back to back on two otherwise identical
	// explorers, toggling the global obs switch around each side. Machine
	// drift hits both sides of every iteration equally, so the rate ratio
	// isolates the tracing cost, recorded as obs_on_overhead_pct
	// (budget <= 1.5%: the per-tile span is one child-span publish and one
	// shared time.Now for span end + histogram sample, ~70 tiles per
	// 262,500-point sweep). Output must stay bit-identical either way.
	tracedWorkers := counts[len(counts)-1]
	b.Run(fmt.Sprintf("path=obs-pair/workers=%d", tracedWorkers), func(b *testing.B) {
		prevTracer, prevEnabled := obs.DefaultTracer, obs.Enabled()
		obs.DefaultTracer = obs.NewTracer(1 << 12)
		b.Cleanup(func() {
			obs.DefaultTracer = prevTracer
			obs.Enable(prevEnabled)
		})
		mk := func() *core.Explorer {
			opts := benchOptions()
			opts.Workers = tracedWorkers
			ex, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := ex.LoadModels(bytes.NewReader(models.Bytes())); err != nil {
				b.Fatal(err)
			}
			return ex
		}
		traced, untraced := mk(), mk()
		outT := make([]core.Prediction, traced.StudySpace.Size())
		outU := make([]core.Prediction, traced.StudySpace.Size())
		var tOn, tOff time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obs.Enable(true)
			t0 := time.Now()
			if err := traced.ExhaustivePredictInto(context.Background(), "mcf", outT); err != nil {
				b.Fatal(err)
			}
			tOn += time.Since(t0)
			obs.Enable(false)
			t0 = time.Now()
			if err := untraced.ExhaustivePredictInto(context.Background(), "mcf", outU); err != nil {
				b.Fatal(err)
			}
			tOff += time.Since(t0)
		}
		b.StopTimer()
		obs.Enable(false)
		for _, side := range []struct {
			path string
			out  []core.Prediction
		}{{"blocked-obs-on", outT}, {"blocked-obs-off", outU}} {
			if baseline == nil {
				continue
			}
			for i := range side.out {
				if side.out[i] != baseline[i] {
					b.Fatalf("path=%s: prediction %d = %+v diverges from baseline %+v",
						side.path, i, side.out[i], baseline[i])
				}
			}
		}
		points := float64(len(outT) * b.N)
		kOn := rateKey{Path: "blocked-obs-on", Workers: tracedWorkers}
		kOff := rateKey{Path: "blocked-obs-off", Workers: tracedWorkers}
		for _, k := range []rateKey{kOn, kOff} {
			if _, ok := measured[k]; !ok {
				order = append(order, k)
			}
		}
		measured[kOn] = points / tOn.Seconds()
		measured[kOff] = points / tOff.Seconds()
		b.ReportMetric(100*(1-tOff.Seconds()/tOn.Seconds()), "obs-overhead-%")
	})
	for _, workers := range counts {
		b.Run(fmt.Sprintf("path=interpreted/workers=%d", workers),
			sweepBench("interpreted", workers, true, false, 0))
	}
	// Speedups at the highest worker count, the configuration that matters
	// for study wall-clock; parallel efficiency from the blocked kernel's
	// 1-to-2-worker step.
	maxWorkers := counts[len(counts)-1]
	blockedRate := measured[rateKey{Path: "blocked", Workers: maxWorkers}]
	blocked1 := measured[rateKey{Path: "blocked", Workers: 1}]
	blocked2 := measured[rateKey{Path: "blocked", Workers: 2}]
	compiledRate := measured[rateKey{Path: "compiled", Workers: maxWorkers}]
	interpretedRate := measured[rateKey{Path: "interpreted", Workers: maxWorkers}]
	obsOnRate := measured[rateKey{Path: "blocked-obs-on", Workers: maxWorkers}]
	obsOffRate := measured[rateKey{Path: "blocked-obs-off", Workers: maxWorkers}]
	guardedRate := measured[rateKey{Path: "blocked-guarded", Workers: maxWorkers}]
	noguardRate := measured[rateKey{Path: "blocked-noguard", Workers: maxWorkers}]
	if blockedRate > 0 && compiledRate > 0 && interpretedRate > 0 {
		type rate struct {
			Path           string  `json:"path"`
			Workers        int     `json:"workers"`
			PredictionsSec float64 `json:"predictions_per_sec"`
		}
		rates := make([]rate, len(order))
		for i, k := range order {
			rates[i] = rate{Path: k.Path, Workers: k.Workers, PredictionsSec: measured[k]}
		}
		report := struct {
			SpacePoints          int     `json:"space_points"`
			NumCPU               int     `json:"num_cpu"`
			Rates                []rate  `json:"rates"`
			SpeedupWorkers       int     `json:"speedup_workers"`
			BlockedSpeedup       float64 `json:"blocked_speedup"`
			CompiledSpeedup      float64 `json:"compiled_speedup"`
			ParallelEfficiency2W float64 `json:"parallel_efficiency_2w"`
			ObsOnOverheadPct     float64 `json:"obs_on_overhead_pct"`
			GuardOverheadPct     float64 `json:"guard_overhead_pct"`
		}{
			SpacePoints:     e.StudySpace.Size(),
			NumCPU:          runtime.NumCPU(),
			Rates:           rates,
			SpeedupWorkers:  maxWorkers,
			BlockedSpeedup:  blockedRate / compiledRate,
			CompiledSpeedup: compiledRate / interpretedRate,
		}
		if blocked1 > 0 && blocked2 > 0 {
			report.ParallelEfficiency2W = blocked2 / blocked1
		}
		if obsOnRate > 0 && obsOffRate > 0 {
			report.ObsOnOverheadPct = 100 * (obsOffRate - obsOnRate) / obsOffRate
		}
		if noguardRate > 0 && guardedRate > 0 {
			report.GuardOverheadPct = 100 * (noguardRate - guardedRate) / noguardRate
		}
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			b.Fatal(err)
		}
		if err := atomicio.WriteFile("BENCH_sweep.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_sweep.json: %v", err)
		}
		logFigure(b, fmt.Sprintf(
			"exhaustive sweep at %d workers: blocked %.3gM predictions/s, scalar compiled %.3gM (%.1fx), interpreted %.3gM (%.1fx total); 2-worker efficiency %.2fx on %d CPU; guard overhead %.2f%%, obs overhead %.2f%%",
			maxWorkers, blockedRate/1e6, compiledRate/1e6, report.BlockedSpeedup,
			interpretedRate/1e6, blockedRate/interpretedRate,
			report.ParallelEfficiency2W, report.NumCPU, report.GuardOverheadPct,
			report.ObsOnOverheadPct))
		// CI regression gate: the tile-parallel sweep must keep scaling.
		// Parallel efficiency needs at least two real cores to exist; on a
		// single-CPU host the gate is structurally unmeasurable, so it is
		// skipped (and says so) rather than reporting a false failure.
		if *scaleGate {
			switch {
			case runtime.NumCPU() < 2:
				b.Logf("scalegate: skipped — %d CPU host cannot express parallel speedup", runtime.NumCPU())
			case report.ParallelEfficiency2W < 1.5:
				b.Fatalf("scalegate: 2-worker parallel efficiency %.2fx < 1.5x (blocked path: %.3gM preds/s at 1 worker, %.3gM at 2)",
					report.ParallelEfficiency2W, blocked1/1e6, blocked2/1e6)
			default:
				b.Logf("scalegate: ok — 2-worker parallel efficiency %.2fx", report.ParallelEfficiency2W)
			}
		}
		// CI regression gate: the guardrail's paired overhead must stay
		// within the DESIGN.md §11 budget. Unlike parallel efficiency it is
		// measurable on any host — the pair runs back to back on the same
		// cores — so there is no skip leg.
		if *guardGate {
			const guardBudgetPct = 8.0
			if report.GuardOverheadPct > guardBudgetPct {
				b.Fatalf("guardgate: guard overhead %.2f%% exceeds the %.0f%% budget (guarded %.3gM preds/s, unguarded %.3gM)",
					report.GuardOverheadPct, guardBudgetPct, guardedRate/1e6, noguardRate/1e6)
			}
			b.Logf("guardgate: ok — guard overhead %.2f%% within the <=%.0f%% budget",
				report.GuardOverheadPct, guardBudgetPct)
		}
	}
	sim := e.SimStats()
	logFigure(b, fmt.Sprintf(
		"evaluation engine: %d simulations run, %d cache hits, %d misses (%.1f%% hit rate), %d workers",
		sim.Evaluations, sim.CacheHits, sim.CacheMisses, 100*sim.HitRate(), sim.Workers))
}

// BenchmarkTrainDataset measures dataset-build throughput — the
// simulation phase of training, the dominant cost of the whole
// methodology — on each simulator tier, through a NoCache engine so
// every evaluation is a real simulation:
//
//   - seed: the full-warmup reference path (DisableFastSim);
//   - cold: a fresh simulator per iteration and one request per distinct
//     warm key, so every run builds its key's outcome mask and replays
//     it — the cost a key pays once. The per-structure outcome streams
//     the masks are built from are walked once per iteration and shared
//     by the pass's keys, so a key's own share is mostly its L2 walk;
//   - replay: the steady state after one untimed pass, every run
//     replaying a memoized mask — the cost every later run of a key pays.
//
// Every tier must produce results bit-identical to the seed's. The rates
// (runs/sec and simulated timed MInst/sec), the speedups over seed and
// the memo's bytes after one pass, in total and in streams, are written
// to BENCH_train.json at the repo root.
func BenchmarkTrainDataset(b *testing.B) {
	traceLen := benchOptions().TraceLen
	benches := []string{"gzip", "mcf", "twolf"}
	// Training samples are drawn from the paper's sampling space; reuse of
	// cache geometries across samples is what the outcome memo exploits.
	space := arch.TableOneSpace()
	points := space.SampleUAR(200, 0xDA7A)
	var reqs []eval.Request
	for _, bench := range benches {
		for _, pt := range points {
			reqs = append(reqs, eval.Request{Config: space.Config(pt), Bench: bench})
		}
	}
	// The cold tier's requests: the first request of each warm key (the
	// trace and the cache geometries), by position in reqs.
	type warmKey struct {
		bench                        string
		il1KB, dl1KB, dl1Assoc, l2KB int
	}
	seen := make(map[warmKey]bool)
	var coldIdx []int
	for i, r := range reqs {
		p, err := sim.Derive(r.Config)
		if err != nil {
			b.Fatal(err)
		}
		k := warmKey{r.Bench, r.Config.IL1KB, r.Config.DL1KB, p.DL1Assoc, r.Config.L2KB}
		if !seen[k] {
			seen[k] = true
			coldIdx = append(coldIdx, i)
		}
	}
	coldReqs := make([]eval.Request, len(coldIdx))
	for j, i := range coldIdx {
		coldReqs[j] = reqs[i]
	}
	timedPerRun := traceLen - int(float64(traceLen)*sim.WarmupFrac)

	measured := make(map[string]float64)
	var seedOut []eval.Result
	var memoBytes, streamBytes int64
	// newBackend returns a simulator and an uncached engine over it, with
	// every trace synthesized: training amortizes synthesis across every
	// sample, so no tier pays for it.
	newBackend := func(b *testing.B, path string, disableFast bool) (*eval.Simulator, *eval.Engine) {
		s := eval.NewSimulator(traceLen)
		s.DisableFastSim = disableFast
		for _, bench := range benches {
			if _, err := trace.ForBenchmark(bench, traceLen); err != nil {
				b.Fatal(err)
			}
		}
		return s, eval.NewEngine(s, eval.Options{NoCache: true, Name: "train-" + path})
	}
	// check requires out[j] to match the seed's result for reqs[idx[j]]
	// (idx nil means the identity). A -bench filter that skips the seed
	// tier leaves nothing to check against.
	check := func(b *testing.B, path string, out []eval.Result, idx []int) {
		if seedOut == nil {
			return
		}
		for j := range out {
			i := j
			if idx != nil {
				i = idx[j]
			}
			if out[j] != seedOut[i] {
				b.Fatalf("path=%s: run %d = %+v diverges from seed %+v", path, i, out[j], seedOut[i])
			}
		}
	}
	reportRate := func(b *testing.B, path string, runs int) {
		runsPerSec := float64(runs) / b.Elapsed().Seconds()
		b.ReportMetric(runsPerSec, "runs/s")
		b.ReportMetric(runsPerSec*float64(timedPerRun)/1e6, "MInst/s")
		measured[path] = runsPerSec
	}
	// Seed first so every fast tier is checked against it.
	b.Run("path=seed", func(b *testing.B) {
		_, eng := newBackend(b, "seed", true)
		// One untimed pass grows the pooled run scratch, so the timed
		// passes measure the reference path's steady state.
		if _, err := eng.EvaluateBatch(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
		var out []eval.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if out, err = eng.EvaluateBatch(context.Background(), reqs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		seedOut = out
		reportRate(b, "seed", len(reqs)*b.N)
	})
	b.Run("path=cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, eng := newBackend(b, "cold", false)
			b.StartTimer()
			out, err := eng.EvaluateBatch(context.Background(), coldReqs)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			check(b, "cold", out, coldIdx)
		}
		reportRate(b, "cold", len(coldReqs)*b.N)
	})
	b.Run("path=replay", func(b *testing.B) {
		s, eng := newBackend(b, "replay", false)
		// One untimed pass records every key's mask, as the first pass
		// of a training sweep does for every study that follows.
		if _, err := eng.EvaluateBatch(context.Background(), reqs); err != nil {
			b.Fatal(err)
		}
		memoBytes, streamBytes = s.MemoBytes(), s.StreamBytes()
		var out []eval.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if out, err = eng.EvaluateBatch(context.Background(), reqs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		check(b, "replay", out, nil)
		reportRate(b, "replay", len(reqs)*b.N)
	})

	// Sharded dataset build vs single process, measured paired: each
	// iteration builds the same training dataset once as a single shard
	// (BuildDatasetShard 0/1 + merge — the unsharded `dse dataset` path)
	// and once split in two (shards 0/2 and 1/2 + merge), on fresh
	// explorers so every simulation is real. The build is simulation-bound,
	// so the split's extra checkpoint writes and merge pass should cost
	// low single digits at most — recorded as shard_overhead_pct with
	// per-shard rates. Both merged checkpoint sets must be byte-identical.
	const datasetShards = 2
	var (
		dsSingleTime, dsShardedTime time.Duration
		dsShardSecs                 [datasetShards]float64
		dsShardRanges               [datasetShards]shard.Range
	)
	dsBenches := []string{"gzip", "mcf"}
	const dsSamples = 100
	b.Run(fmt.Sprintf("path=sharded/shards=%d", datasetShards), func(b *testing.B) {
		singleDir, shardDir := b.TempDir(), b.TempDir()
		mk := func(dir string) *core.Explorer {
			opts := benchOptions()
			opts.Benchmarks = dsBenches
			opts.TrainSamples = dsSamples
			opts.CheckpointDir = dir
			ex, err := core.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			return ex
		}
		var tSingle, tSharded time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			one := mk(singleDir)
			t0 := time.Now()
			if err := one.BuildDatasetShard(context.Background(), 0, 1); err != nil {
				b.Fatal(err)
			}
			if err := one.MergeDatasetShards(1); err != nil {
				b.Fatal(err)
			}
			tSingle += time.Since(t0)
			many := mk(shardDir)
			t0 = time.Now()
			for s := 0; s < datasetShards; s++ {
				st := time.Now()
				if err := many.BuildDatasetShard(context.Background(), s, datasetShards); err != nil {
					b.Fatal(err)
				}
				dsShardSecs[s] = time.Since(st).Seconds()
			}
			if err := many.MergeDatasetShards(datasetShards); err != nil {
				b.Fatal(err)
			}
			tSharded += time.Since(t0)
			for s := range dsShardRanges {
				dsShardRanges[s] = many.DatasetShardRange(s, datasetShards)
			}
		}
		b.StopTimer()
		for _, bench := range dsBenches {
			single, err := os.ReadFile(filepath.Join(singleDir, "train-"+bench+".ckpt"))
			if err != nil {
				b.Fatal(err)
			}
			merged, err := os.ReadFile(filepath.Join(shardDir, "train-"+bench+".ckpt"))
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(single, merged) {
				b.Fatalf("merged %s dataset checkpoint differs from single-process (%d vs %d bytes)",
					bench, len(merged), len(single))
			}
		}
		dsSingleTime, dsShardedTime = tSingle, tSharded
		b.ReportMetric(100*(tSharded.Seconds()/tSingle.Seconds()-1), "shard-overhead-%")
	})

	seedRate, coldRate, replayRate := measured["seed"], measured["cold"], measured["replay"]
	if seedRate > 0 && coldRate > 0 && replayRate > 0 {
		type rate struct {
			Path        string  `json:"path"`
			RunsPerSec  float64 `json:"runs_per_sec"`
			MInstPerSec float64 `json:"timed_minst_per_sec"`
		}
		type shardRate struct {
			Shard      int     `json:"shard"`
			Lo         int     `json:"lo"`
			Hi         int     `json:"hi"`
			RunsPerSec float64 `json:"runs_per_sec"`
		}
		mk := func(path string, runsPerSec float64) rate {
			return rate{Path: path, RunsPerSec: runsPerSec, MInstPerSec: runsPerSec * float64(timedPerRun) / 1e6}
		}
		report := struct {
			Benchmarks       []string    `json:"benchmarks"`
			Configs          int         `json:"configs"`
			WarmKeys         int         `json:"warm_keys"`
			TraceLen         int         `json:"trace_len"`
			TimedPerRun      int         `json:"timed_instructions_per_run"`
			NumCPU           int         `json:"num_cpu"`
			Rates            []rate      `json:"rates"`
			ColdSpeedup      float64     `json:"cold_speedup"`
			ReplaySpeedup    float64     `json:"replay_speedup"`
			MemoBytes        int64       `json:"memo_bytes_after_one_pass"`
			StreamBytes      int64       `json:"stream_bytes_after_one_pass"`
			Shards           int         `json:"shards,omitempty"`
			ShardOverheadPct float64     `json:"shard_overhead_pct,omitempty"`
			PerShardRates    []shardRate `json:"per_shard_rates,omitempty"`
		}{
			Benchmarks:    benches,
			Configs:       len(points),
			WarmKeys:      len(coldReqs),
			TraceLen:      traceLen,
			TimedPerRun:   timedPerRun,
			NumCPU:        runtime.NumCPU(),
			Rates:         []rate{mk("seed", seedRate), mk("cold", coldRate), mk("replay", replayRate)},
			ColdSpeedup:   coldRate / seedRate,
			ReplaySpeedup: replayRate / seedRate,
			MemoBytes:     memoBytes,
			StreamBytes:   streamBytes,
		}
		if dsSingleTime > 0 && dsShardedTime > 0 {
			report.Shards = datasetShards
			report.ShardOverheadPct = 100 * (dsShardedTime.Seconds()/dsSingleTime.Seconds() - 1)
			for s, r := range dsShardRanges {
				psr := shardRate{Shard: s, Lo: r.Lo, Hi: r.Hi}
				if dsShardSecs[s] > 0 {
					psr.RunsPerSec = float64(r.Len()) / dsShardSecs[s]
				}
				report.PerShardRates = append(report.PerShardRates, psr)
			}
		}
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			b.Fatal(err)
		}
		if err := atomicio.WriteFile("BENCH_train.json", append(data, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_train.json: %v", err)
		}
		logFigure(b, fmt.Sprintf(
			"dataset build: seed %.0f runs/s, cold key %.0f runs/s (%.2fx), replay %.0f runs/s (%.2fx); "+
				"%d runs over %d warm keys of %d timed instructions, memo %d bytes after one pass (%d in streams)",
			seedRate, coldRate, coldRate/seedRate, replayRate, replayRate/seedRate,
			len(reqs), len(coldReqs), timedPerRun, memoBytes, streamBytes))
	}
}

// BenchmarkFigure3ParetoFrontier reproduces the frontier construction and
// its simulator validation.
func BenchmarkFigure3ParetoFrontier(b *testing.B) {
	e := sharedFixture(b)
	results := paretoResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paretostudy.Run(e, "mcf", paretostudy.Options{DelayTargets: 40}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, bench := range []string{"ammp", "mcf"} {
		if r, ok := results[bench]; ok {
			logFigure(b, report.Figure3(r))
		}
	}
}

// BenchmarkFigure4ParetoError reproduces the frontier prediction-error
// distributions.
func BenchmarkFigure4ParetoError(b *testing.B) {
	results := paretoResults(b)
	b.ResetTimer()
	var perf, pow float64
	for i := 0; i < b.N; i++ {
		var ok bool
		perf, pow, ok = paretostudy.ErrorSummary(results)
		if !ok {
			b.Fatal("no frontier validation data")
		}
	}
	b.StopTimer()
	logFigure(b, report.Figure4(results))
	logFigure(b, fmt.Sprintf("frontier medians: perf %.1f%%, power %.1f%%", perf*100, pow*100))
}

// BenchmarkTable2EfficiencyOptima reproduces the per-benchmark bips^3/w
// optima with their model-vs-simulation errors.
func BenchmarkTable2EfficiencyOptima(b *testing.B) {
	e := sharedFixture(b)
	results := paretoResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heterostudy.FindOptima(e); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Table2(results))
}

func depthResults(b *testing.B) (map[string]*depthstudy.Result, *depthstudy.SuiteAverage) {
	b.Helper()
	e := sharedFixture(b)
	if fixture.depth == nil {
		res, err := depthstudy.RunSuite(e, depthstudy.Options{SimulateValidation: true})
		if err != nil {
			b.Fatal(err)
		}
		avg, err := depthstudy.Average(res)
		if err != nil {
			b.Fatal(err)
		}
		fixture.depth = res
		fixture.depthAvg = avg
	}
	return fixture.depth, fixture.depthAvg
}

// BenchmarkFigure5aDepthEfficiency reproduces the original-vs-enhanced
// depth analysis.
func BenchmarkFigure5aDepthEfficiency(b *testing.B) {
	e := sharedFixture(b)
	_, avg := depthResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := depthstudy.Run(e, "gzip", depthstudy.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Figure5a(avg))
}

// BenchmarkFigure5bTopCacheSizes reproduces the D-L1 distribution among
// the most efficient designs at each depth.
func BenchmarkFigure5bTopCacheSizes(b *testing.B) {
	e := sharedFixture(b)
	results, _ := depthResults(b)
	b.ResetTimer()
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = report.Figure5b(results, e.StudySpace)
	}
	b.StopTimer()
	logFigure(b, rendered)
}

// BenchmarkFigure6DepthValidation reproduces the predicted-vs-simulated
// depth efficiency comparison.
func BenchmarkFigure6DepthValidation(b *testing.B) {
	results, avg := depthResults(b)
	b.ResetTimer()
	var out *depthstudy.SuiteAverage
	for i := 0; i < b.N; i++ {
		var err error
		out, err = depthstudy.Average(results)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = out
	logFigure(b, report.Figure6(avg))
}

// BenchmarkFigure7PerfPowerDecomposition decomposes the depth validation
// into its performance and power components.
func BenchmarkFigure7PerfPowerDecomposition(b *testing.B) {
	results, _ := depthResults(b)
	b.ResetTimer()
	var rendered string
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"gzip", "mcf"} {
			if r, ok := results[bench]; ok {
				rendered = report.Figure7(r)
			}
		}
	}
	b.StopTimer()
	for _, bench := range []string{"gzip", "mcf"} {
		if r, ok := results[bench]; ok {
			logFigure(b, report.Figure7(r))
		}
	}
	_ = rendered
}

func heteroResult(b *testing.B) *heterostudy.Result {
	b.Helper()
	e := sharedFixture(b)
	if fixture.hetero == nil {
		res, err := heterostudy.Run(e, nil, heterostudy.Options{
			SimulateValidation: true,
			Seed:               benchOptions().Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		fixture.hetero = res
	}
	return fixture.hetero
}

// BenchmarkTable4CompromiseArchitectures reproduces the K=4 compromise
// cores from K-means clustering of the per-benchmark optima.
func BenchmarkTable4CompromiseArchitectures(b *testing.B) {
	e := sharedFixture(b)
	res := heteroResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heterostudy.Run(e, nil, heterostudy.Options{
			MaxClusters: 4,
			Seed:        uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Table4(res))
}

// BenchmarkFigure8DelayPowerClusters reproduces the delay-power scatter
// of optima and compromises.
func BenchmarkFigure8DelayPowerClusters(b *testing.B) {
	res := heteroResult(b)
	b.ResetTimer()
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = report.Figure8(res)
	}
	b.StopTimer()
	logFigure(b, rendered)
}

// BenchmarkFigure9HeterogeneityGains reproduces the efficiency-gain curve
// versus cluster count, predicted and simulated.
func BenchmarkFigure9HeterogeneityGains(b *testing.B) {
	e := sharedFixture(b)
	res := heteroResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heterostudy.Run(e, nil, heterostudy.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, report.Figure9(res, e.Benchmarks()))
}

// ablationValidate trains a one-benchmark explorer with the given spec
// and reports overall median validation errors.
func ablationValidate(b *testing.B, spec core.SpecBuilder, samples int) (perf, pow float64) {
	b.Helper()
	opts := benchOptions()
	opts.Benchmarks = []string{"mesa"}
	opts.Spec = spec
	if samples > 0 {
		opts.TrainSamples = samples
	}
	e, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Train(); err != nil {
		b.Fatal(err)
	}
	rep, err := e.Validate(0)
	if err != nil {
		b.Fatal(err)
	}
	return rep.OverallMedians()
}

// BenchmarkAblationSplineVsLinear quantifies the value of restricted
// cubic splines (paper Section 3.3) against an all-linear model.
func BenchmarkAblationSplineVsLinear(b *testing.B) {
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, w1 := ablationValidate(b, core.PaperSpec, 0)
		p2, w2 := ablationValidate(b, core.LinearSpec, 0)
		rows = []string{
			fmt.Sprintf("paper spec (splines):  perf %.1f%%  power %.1f%%", p1*100, w1*100),
			fmt.Sprintf("linear-only ablation:  perf %.1f%%  power %.1f%%", p2*100, w2*100),
		}
	}
	b.StopTimer()
	logFigure(b, "Ablation: splines vs linear predictors (mesa)\n"+rows[0]+"\n"+rows[1])
}

// BenchmarkAblationResponseTransform quantifies the sqrt/log response
// transformations against fitting on the raw scale.
func BenchmarkAblationResponseTransform(b *testing.B) {
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, w1 := ablationValidate(b, core.PaperSpec, 0)
		p2, w2 := ablationValidate(b, core.UntransformedSpec, 0)
		rows = []string{
			fmt.Sprintf("transformed responses: perf %.1f%%  power %.1f%%", p1*100, w1*100),
			fmt.Sprintf("identity ablation:     perf %.1f%%  power %.1f%%", p2*100, w2*100),
		}
	}
	b.StopTimer()
	logFigure(b, "Ablation: response transforms (mesa)\n"+rows[0]+"\n"+rows[1])
}

// BenchmarkAblationInteractions quantifies the domain-knowledge
// interaction terms of Section 3.2.
func BenchmarkAblationInteractions(b *testing.B) {
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1, w1 := ablationValidate(b, core.PaperSpec, 0)
		p2, w2 := ablationValidate(b, core.NoInteractionSpec, 0)
		rows = []string{
			fmt.Sprintf("with interactions:    perf %.1f%%  power %.1f%%", p1*100, w1*100),
			fmt.Sprintf("without interactions: perf %.1f%%  power %.1f%%", p2*100, w2*100),
		}
	}
	b.StopTimer()
	logFigure(b, "Ablation: predictor interactions (mesa)\n"+rows[0]+"\n"+rows[1])
}

// BenchmarkAblationSampleSize sweeps the training-set size, the paper's
// central tractability lever (Section 2.3: 1,000 samples suffice).
func BenchmarkAblationSampleSize(b *testing.B) {
	sizes := []int{100, 200, 400, 800}
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, n := range sizes {
			p, w := ablationValidate(b, core.PaperSpec, n)
			rows = append(rows, fmt.Sprintf("n=%4d: perf %.1f%%  power %.1f%%", n, p*100, w*100))
		}
	}
	b.StopTimer()
	out := "Ablation: training sample size (mesa)"
	for _, r := range rows {
		out += "\n" + r
	}
	logFigure(b, out)
}

// BenchmarkExtensionHeuristicSearch exercises the paper's future-work
// extension: heuristic search over the models instead of exhaustive
// prediction. Hill climbing should find the same bips^3/w optimum as the
// 262,500-point sweep in a few thousand model evaluations.
func BenchmarkExtensionHeuristicSearch(b *testing.B) {
	e := sharedFixture(b)
	perf, pow, err := e.Models("mesa")
	if err != nil {
		b.Fatal(err)
	}
	obj := func(cfg arch.Config) float64 {
		get := arch.PredictorGetter(cfg)
		pb, pw := perf.Predict(get), pow.Predict(get)
		if pb <= 0 || pw <= 0 {
			return 0
		}
		return metrics.BIPS3W(pb, pw)
	}
	// Exhaustive ground truth once.
	preds, err := e.ExhaustivePredict("mesa")
	if err != nil {
		b.Fatal(err)
	}
	exhaustive := 0.0
	for _, p := range preds {
		if p.BIPS > 0 && p.Watts > 0 {
			if eff := metrics.BIPS3W(p.BIPS, p.Watts); eff > exhaustive {
				exhaustive = eff
			}
		}
	}
	b.ResetTimer()
	var res *search.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = search.HillClimb(e.StudySpace, obj, search.Options{Seed: 7, Restarts: 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logFigure(b, fmt.Sprintf(
		"Extension: hill climbing reached %.4g vs exhaustive %.4g (%.1f%%) in %d evaluations (sweep: %d)",
		res.BestScore, exhaustive, 100*res.BestScore/exhaustive,
		res.Evaluations, e.StudySpace.Size()))
}

// BenchmarkExtensionInOrderCores probes the paper's second future-work
// extension — in-order execution as a design parameter — and with it the
// Davis-vs-Huh question from the paper's related work: are many mediocre
// in-order cores or fewer aggressive out-of-order cores more
// power-performance efficient?
func BenchmarkExtensionInOrderCores(b *testing.B) {
	traceLen := benchOptions().TraceLen
	benches := []string{"ammp", "gzip", "mcf", "mesa"}
	type row struct {
		bench            string
		oooEff, inoEff   float64
		oooBIPS, inoBIPS float64
		oooW, inoW       float64
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, bench := range benches {
			tr, err := trace.ForBenchmark(bench, traceLen)
			if err != nil {
				b.Fatal(err)
			}
			ooo := arch.Baseline()
			ino := arch.Baseline()
			ino.InOrder = true
			ro, err := sim.Run(ooo, tr)
			if err != nil {
				b.Fatal(err)
			}
			ri, err := sim.Run(ino, tr)
			if err != nil {
				b.Fatal(err)
			}
			wo, wi := power.Watts(ro), power.Watts(ri)
			rows = append(rows, row{
				bench:   bench,
				oooEff:  metrics.BIPS3W(ro.BIPS, wo),
				inoEff:  metrics.BIPS3W(ri.BIPS, wi),
				oooBIPS: ro.BIPS, inoBIPS: ri.BIPS,
				oooW: wo, inoW: wi,
			})
		}
	}
	b.StopTimer()
	t := report.NewTable("Extension: out-of-order vs in-order baseline cores",
		"bench", "ooo bips", "ino bips", "ooo W", "ino W", "ooo eff", "ino eff", "ino/ooo")
	for _, r := range rows {
		t.AddRow(r.bench,
			fmt.Sprintf("%.2f", r.oooBIPS), fmt.Sprintf("%.2f", r.inoBIPS),
			fmt.Sprintf("%.1f", r.oooW), fmt.Sprintf("%.1f", r.inoW),
			fmt.Sprintf("%.4f", r.oooEff), fmt.Sprintf("%.4f", r.inoEff),
			fmt.Sprintf("%.2f", r.inoEff/r.oooEff))
	}
	logFigure(b, t.String())
}

// BenchmarkExtensionCacheAssociativity sweeps the D-L1 associativity
// override, the other parameter the paper plans to add to its models.
func BenchmarkExtensionCacheAssociativity(b *testing.B) {
	traceLen := benchOptions().TraceLen
	tr, err := trace.ForBenchmark("twolf", traceLen)
	if err != nil {
		b.Fatal(err)
	}
	assocs := []int{1, 2, 4, 8}
	var lines []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, a := range assocs {
			cfg := arch.Baseline()
			cfg.DL1Assoc = a
			res, err := sim.Run(cfg, tr)
			if err != nil {
				b.Fatal(err)
			}
			w := power.Watts(res)
			lines = append(lines, fmt.Sprintf(
				"assoc %d: dl1 miss %.2f%%  bips %.3f  watts %.1f  eff %.4f",
				a, 100*float64(res.Activity.DL1Miss)/float64(res.Activity.DL1Access),
				res.BIPS, w, metrics.BIPS3W(res.BIPS, w)))
		}
	}
	b.StopTimer()
	out := "Extension: D-L1 associativity sweep (twolf)"
	for _, l := range lines {
		out += "\n" + l
	}
	logFigure(b, out)
}

// BenchmarkSimulatorThroughput measures the detailed simulator itself,
// the unit of cost the regression methodology amortizes.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := trace.ForBenchmark("gcc", benchOptions().TraceLen)
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.Baseline()
	e := sharedFixture(b)
	_ = e
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coreSimulate(cfg, tr.Name, benchOptions().TraceLen); err != nil {
			b.Fatal(err)
		}
	}
}

// coreSimulate is a tiny wrapper so the throughput benchmark measures an
// uncached simulation path.
func coreSimulate(cfg arch.Config, bench string, traceLen int) (float64, float64, error) {
	opts := core.DefaultOptions()
	opts.TraceLen = traceLen
	opts.Benchmarks = []string{bench}
	e, err := core.New(opts)
	if err != nil {
		return 0, 0, err
	}
	return e.Simulate(cfg, bench)
}

// BenchmarkRegressionFitFullSpec measures fitting one paper-spec model on
// a 1000-sample training set, the paper's "numerically solving a system
// of linear equations" cost.
func BenchmarkRegressionFitFullSpec(b *testing.B) {
	e := sharedFixture(b)
	// Rebuild a dataset from the live models' training residual path is
	// private; instead time a fresh fit through the public API at the
	// configured budget on one benchmark.
	opts := benchOptions()
	opts.Benchmarks = []string{"gzip"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.Train(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perf, _, err := e.Models("gzip")
	if err != nil {
		b.Fatal(err)
	}
	logFigure(b, fmt.Sprintf("gzip performance model: R2=%.4f adjR2=%.4f coefficients=%d",
		perf.R2(), perf.AdjR2(), perf.NumCoefficients()))
}

// BenchmarkPredictionThroughput measures single-point prediction, the
// operation the paper quotes as "thousands of predictions in a few
// seconds".
func BenchmarkPredictionThroughput(b *testing.B) {
	e := sharedFixture(b)
	perf, pow, err := e.Models("gcc")
	if err != nil {
		b.Fatal(err)
	}
	get := arch.PredictorGetter(arch.Baseline())
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += perf.Predict(get) + pow.Predict(get)
	}
	b.StopTimer()
	if sink <= 0 {
		b.Fatal("predictions vanished")
	}
}

// BenchmarkCompiledPredict compares single-point prediction through the
// three evaluation paths: the interpreted models, the compiled value
// path (arbitrary configurations) and the compiled level-table path (the
// sweep hot loop). Each iteration predicts both bips and watts.
func BenchmarkCompiledPredict(b *testing.B) {
	e := sharedFixture(b)
	perf, pow, err := e.Models("gcc")
	if err != nil {
		b.Fatal(err)
	}
	pair, err := eval.CompilePair(perf, pow, e.StudySpace)
	if err != nil {
		b.Fatal(err)
	}
	pt := arch.BaselinePoint(e.StudySpace)
	cfg := e.StudySpace.Config(pt)
	get := arch.PredictorGetter(cfg)
	want := perf.Predict(get) + pow.Predict(get)
	check := func(b *testing.B, sink float64, n int) {
		b.Helper()
		if sink != want*float64(n) {
			b.Fatalf("paths diverged: sink %v, want %v", sink, want*float64(n))
		}
	}
	b.Run("interpreted", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += perf.Predict(get) + pow.Predict(get)
		}
		b.StopTimer()
		check(b, sink, b.N)
	})
	b.Run("compiled-values", func(b *testing.B) {
		var scratch eval.PairScratch
		var sink float64
		for i := 0; i < b.N; i++ {
			bips, watts := pair.EvalConfig(cfg, &scratch)
			sink += bips + watts
		}
		b.StopTimer()
		check(b, sink, b.N)
	})
	b.Run("compiled-levels", func(b *testing.B) {
		var scratch eval.PairScratch
		lev := pt[:]
		var sink float64
		for i := 0; i < b.N; i++ {
			bips, watts := pair.EvalLevels(lev, &scratch)
			sink += bips + watts
		}
		b.StopTimer()
		check(b, sink, b.N)
	})
}

// BenchmarkBoxplotConstruction measures the statistics substrate on a
// 37,500-value population (one depth bin of the enhanced analysis).
func BenchmarkBoxplotConstruction(b *testing.B) {
	data := make([]float64, 37500)
	for i := range data {
		data[i] = float64(i%977) / 977
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box := stats.NewBoxplot(data)
		if box.N != len(data) {
			b.Fatal("bad boxplot")
		}
	}
}

// BenchmarkSplineBasis measures the restricted-cubic-spline evaluation in
// the prediction hot path.
func BenchmarkSplineBasis(b *testing.B) {
	knots := regression.Knots([]float64{9, 12, 15, 18, 21, 24, 27, 30, 33, 36}, 4)
	if knots == nil {
		b.Fatal("no knots")
	}
	buf := make([]float64, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = regression.AppendSplineBasis(buf[:0], 19.5, knots)
	}
	_ = buf
}
