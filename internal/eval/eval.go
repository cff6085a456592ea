// Package eval provides the unified evaluation layer: every
// (configuration, benchmark) → (bips, watts) query in the system — from
// the detailed simulator or from fitted regression models — is routed
// through one batched, cached, cancellable Engine. The studies, the
// training pipeline, heuristic search and the exhaustive sweep all
// consume the same service, so parallelism, memoization, de-duplication
// and instrumentation live in exactly one place.
package eval

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/regression"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Default guardrail sampling intervals: roughly one in N fast-path
// results is recomputed on the reference path and compared bit-exactly.
// The simulator's reference run costs about as much as the fast run, so
// 1/256 keeps overhead well under 1%; a compiled model prediction is so
// cheap that even the interpreted reference is nearly free, but 1/1024
// keeps the shared-counter traffic negligible in the sweep hot loop.
const (
	DefaultSimGuardInterval   = 256
	DefaultModelGuardInterval = 1024
)

// Request identifies one evaluation: a fully-resolved design point and
// the benchmark to run it on. Requests are comparable and serve directly
// as cache keys.
type Request struct {
	Config arch.Config
	Bench  string
}

// Result is the outcome of one evaluation.
type Result struct {
	BIPS  float64
	Watts float64
}

// Evaluator maps one (configuration, benchmark) pair to (bips, watts).
// Implementations must be safe for concurrent use; the Engine calls them
// from many goroutines.
type Evaluator interface {
	Evaluate(cfg arch.Config, bench string) (bips, watts float64, err error)
}

// Func adapts a plain function to the Evaluator interface.
type Func func(cfg arch.Config, bench string) (bips, watts float64, err error)

// Evaluate implements Evaluator.
func (f Func) Evaluate(cfg arch.Config, bench string) (float64, float64, error) {
	return f(cfg, bench)
}

// RequestsFor builds one request per configuration against a single
// benchmark, preserving order.
func RequestsFor(cfgs []arch.Config, bench string) []Request {
	reqs := make([]Request, len(cfgs))
	for i, cfg := range cfgs {
		reqs[i] = Request{Config: cfg, Bench: bench}
	}
	return reqs
}

// Simulator is the detailed-simulation backend: it synthesizes (and
// memoizes) the benchmark trace, runs the cycle-accounting core model and
// derives power from the activity counts. By default runs go through the
// sim.Runner fast path — pooled scratch plus memoized cache/BHT outcomes
// per (trace, geometry) — which is bit-identical to the full
// warmup path. Safe for concurrent use; traces are immutable once
// synthesized and runner state is internally synchronized.
type Simulator struct {
	// TraceLen is the synthetic trace length per benchmark.
	TraceLen int

	// DisableFastSim forces every run through sim.Run's full warmup walk
	// instead of the runner's memoized outcomes. Output is
	// bit-identical either way; the switch exists for benchmarking and
	// as an escape hatch, mirroring core.Options.DisableCompile.
	DisableFastSim bool

	// synth synthesizes a trace; defaults to trace.ForBenchmark.
	// Overridable so tests can observe and block synthesis.
	synth func(bench string, n int) (*trace.Trace, error)

	// traces is an atomic copy-on-write snapshot of the benchmark→entry
	// map: the hot Evaluate path reads it with one atomic load, so
	// concurrent batch workers never serialize on a mutex for a map
	// read. mu serializes only first-touch inserts.
	mu     sync.Mutex
	traces atomic.Pointer[map[string]*traceEntry]

	// runner is the fast path shared by every run of this backend.
	runner *sim.Runner

	// guard cross-checks a sample of fast-path runs against sim.Run, the
	// reference warmup walk. The two paths are bit-identical by
	// construction, so one divergence means silent corruption: the guard
	// trips and every later run takes the reference path.
	guard *Guardrail
}

// traceEntry is one benchmark's synthesis slot: the once runs the
// synthesis exactly once however many goroutines race on the benchmark,
// without holding the Simulator lock.
type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

// NewSimulator returns a simulator backend with the given trace length.
func NewSimulator(traceLen int) *Simulator {
	s := &Simulator{
		TraceLen: traceLen,
		synth:    trace.ForBenchmark,
		runner:   sim.NewRunner(),
		guard:    NewGuardrail(DefaultSimGuardInterval),
	}
	m := make(map[string]*traceEntry)
	s.traces.Store(&m)
	return s
}

// SetGuardInterval replaces the backend's guardrail with one checking
// every interval-th fast run; interval <= 0 disables checking. Call
// before handing the backend to an engine.
func (s *Simulator) SetGuardInterval(interval int64) { s.guard = NewGuardrail(interval) }

// Guard exposes the backend's guardrail (tests trip and inspect it).
func (s *Simulator) Guard() *Guardrail { return s.guard }

// GuardStats implements the guardStatser probe for engine stats.
func (s *Simulator) GuardStats() (checks, divergences int64, degraded bool) {
	return s.guard.Stats()
}

// WarmStats returns the runner's outcome memo counters: runs that
// replayed a memoized outcome mask (hits) versus runs that built their
// own (misses).
func (s *Simulator) WarmStats() (hits, misses int64) {
	return s.runner.WarmStats()
}

// MemoBytes returns the bytes the runner's memo holds: outcome masks
// plus per-structure outcome streams.
func (s *Simulator) MemoBytes() int64 { return s.runner.MemoBytes() }

// StreamBytes returns the part of MemoBytes held by per-structure outcome
// streams.
func (s *Simulator) StreamBytes() int64 { return s.runner.StreamBytes() }

// traceFor returns the memoized trace for a benchmark, synthesizing it on
// first use. The steady-state path is one atomic load and a map read —
// no lock — so concurrent batch workers never serialize here. First
// touch of a benchmark inserts its entry by copying the map under the
// mutex; synthesis itself runs under a per-benchmark sync.Once, so
// first-touch synthesis of distinct benchmarks proceeds concurrently
// while racing callers of one benchmark still share a single synthesis.
// Failed synthesis is not memoized: the entry is dropped so a later call
// retries — with transient failures injectable at the trace.synth site,
// a sticky failure would defeat the engine's retry and poison the
// benchmark forever.
func (s *Simulator) traceFor(bench string) (*trace.Trace, error) {
	e, ok := (*s.traces.Load())[bench]
	if !ok {
		s.mu.Lock()
		m := *s.traces.Load()
		if e, ok = m[bench]; !ok {
			next := make(map[string]*traceEntry, len(m)+1)
			for k, v := range m {
				next[k] = v
			}
			e = &traceEntry{}
			next[bench] = e
			s.traces.Store(&next)
		}
		s.mu.Unlock()
	}
	e.once.Do(func() {
		if err := fault.Here("trace.synth"); err != nil {
			e.err = err
			return
		}
		e.tr, e.err = s.synth(bench, s.TraceLen)
	})
	if e.err != nil {
		// Drop the failed entry (only if the map still holds this exact
		// entry — a concurrent waiter may have dropped and replaced it
		// already) so the next caller synthesizes afresh.
		s.mu.Lock()
		m := *s.traces.Load()
		if m[bench] == e {
			next := make(map[string]*traceEntry, len(m))
			for k, v := range m {
				if k != bench {
					next[k] = v
				}
			}
			s.traces.Store(&next)
		}
		s.mu.Unlock()
		return nil, e.err
	}
	return e.tr, nil
}

// Evaluate implements Evaluator by detailed simulation. Runs go through
// the pooled, outcome-memoizing fast path unless DisableFastSim is
// set or the guardrail has tripped; the two paths produce bit-identical
// results, and the guardrail recomputes roughly one in
// DefaultSimGuardInterval fast runs on the reference path to prove it
// at runtime. A divergence returns the reference numbers and routes all
// later runs down the reference path.
func (s *Simulator) Evaluate(cfg arch.Config, bench string) (float64, float64, error) {
	tr, err := s.traceFor(bench)
	if err != nil {
		return 0, 0, err
	}
	if s.DisableFastSim || s.guard.Degraded() {
		res, err := sim.Run(cfg, tr)
		if err != nil {
			return 0, 0, fmt.Errorf("eval: simulating %s on %v: %w", bench, cfg, err)
		}
		return res.BIPS, power.Watts(res), nil
	}
	var res sim.Result
	if err := s.runner.RunInto(&res, cfg, tr); err != nil {
		return 0, 0, fmt.Errorf("eval: simulating %s on %v: %w", bench, cfg, err)
	}
	bips, watts := res.BIPS, power.Watts(&res)
	if fault.Active() {
		// Injection point for silent fast-path corruption: flips model a
		// bad memoized outcome mask or a scratch-pool bug.
		bips = fault.Flip("eval.sim.fast", bips)
		watts = fault.Flip("eval.sim.fast", watts)
	}
	if s.guard.Tick() {
		ref, err := sim.Run(cfg, tr)
		if err != nil {
			return 0, 0, fmt.Errorf("eval: guard reference for %s on %v: %w", bench, cfg, err)
		}
		refBIPS, refWatts := ref.BIPS, power.Watts(ref)
		diverged := bips != refBIPS || watts != refWatts
		s.guard.Record(diverged)
		if diverged {
			return refBIPS, refWatts, nil
		}
	}
	return bips, watts, nil
}

// Models is the regression backend: it evaluates the fitted per-benchmark
// performance and power models. Lookup resolves a benchmark to its two
// models (typically a closure over the Explorer's trained state), so the
// backend always sees the current models without copying them. When
// LookupCompiled is set and yields a pair, predictions run through the
// compiled fast path instead of the interpreted models.
type Models struct {
	Lookup func(bench string) (perf, pow *regression.Model, err error)

	// LookupCompiled, when non-nil, resolves a benchmark to its fused
	// compiled model pair. Returning (nil, nil) falls back to Lookup's
	// interpreted models for that benchmark.
	LookupCompiled func(bench string) (*CompiledPair, error)

	// last memoizes the most recent benchmark resolution: batches share a
	// benchmark (the common case for every sweep), so the lookups hoist
	// to once per batch instead of once per prediction.
	last atomic.Pointer[resolvedModels]

	// pool recycles per-goroutine scratch so a 262,500-point sweep does
	// not allocate per prediction.
	pool sync.Pool

	// guard cross-checks a sample of compiled predictions against the
	// interpreted models they were compiled from; a divergence trips it
	// and routes later predictions through the interpreted path.
	guard *Guardrail
}

// resolvedModels is one benchmark's evaluation state, resolved once and
// reused across the predictions of a batch.
type resolvedModels struct {
	bench     string
	pair      *CompiledPair     // non-nil on the compiled path
	perf, pow *regression.Model // interpreted fallback
}

// NewModels returns a regression-model backend over the lookup function.
func NewModels(lookup func(bench string) (perf, pow *regression.Model, err error)) *Models {
	m := &Models{Lookup: lookup, guard: NewGuardrail(DefaultModelGuardInterval)}
	m.pool.New = func() any { return new(PairScratch) }
	return m
}

// SetGuardInterval replaces the backend's guardrail with one checking
// every interval-th compiled prediction; interval <= 0 disables
// checking. Call before handing the backend to an engine.
func (m *Models) SetGuardInterval(interval int64) { m.guard = NewGuardrail(interval) }

// Guard exposes the backend's guardrail (tests trip and inspect it; the
// compiled sweep kernel shares it).
func (m *Models) Guard() *Guardrail { return m.guard }

// GuardStats implements the guardStatser probe for engine stats.
func (m *Models) GuardStats() (checks, divergences int64, degraded bool) {
	return m.guard.Stats()
}

// Reset drops the memoized benchmark resolution. Call it after the
// models behind Lookup/LookupCompiled change (retraining, LoadModels) so
// stale resolutions cannot serve predictions.
func (m *Models) Reset() { m.last.Store(nil) }

// resolve returns the cached resolution for bench, refreshing it on a
// benchmark switch. Failed resolutions are not cached. The interpreted
// models are always resolved, even on the compiled path: they are the
// guardrail's reference and the degraded fallback.
func (m *Models) resolve(bench string) (*resolvedModels, error) {
	if r := m.last.Load(); r != nil && r.bench == bench {
		return r, nil
	}
	r := &resolvedModels{bench: bench}
	if m.LookupCompiled != nil {
		pair, err := m.LookupCompiled(bench)
		if err != nil {
			return nil, err
		}
		r.pair = pair
	}
	perf, pow, err := m.Lookup(bench)
	if err != nil {
		return nil, err
	}
	r.perf, r.pow = perf, pow
	m.last.Store(r)
	return r, nil
}

// Evaluate implements Evaluator by model prediction: through the fused
// compiled pair when available and the guardrail untripped, otherwise
// the interpreted models. Roughly one in DefaultModelGuardInterval
// compiled predictions is recomputed on the interpreted path and
// compared bit-exactly; a divergence returns the interpreted numbers
// and routes later predictions down the interpreted path.
func (m *Models) Evaluate(cfg arch.Config, bench string) (float64, float64, error) {
	r, err := m.resolve(bench)
	if err != nil {
		return 0, 0, err
	}
	s := m.pool.Get().(*PairScratch)
	var bips, watts float64
	if r.pair != nil && !m.guard.Degraded() {
		bips, watts = r.pair.EvalConfig(cfg, s)
		if fault.Active() {
			// Injection point for silent compiled-table corruption.
			bips = fault.Flip("eval.model.compiled", bips)
			watts = fault.Flip("eval.model.compiled", watts)
		}
		if m.guard.Tick() {
			refBIPS, refWatts := interpretedPredict(r, cfg, s)
			diverged := bips != refBIPS || watts != refWatts
			m.guard.Record(diverged)
			if diverged {
				bips, watts = refBIPS, refWatts
			}
		}
	} else {
		bips, watts = interpretedPredict(r, cfg, s)
	}
	m.pool.Put(s)
	return bips, watts, nil
}

// interpretedPredict predicts through the interpreted regression models
// — the reference path the compiled tables were built from.
func interpretedPredict(r *resolvedModels, cfg arch.Config, s *PairScratch) (bips, watts float64) {
	vals := arch.PredictorsInto(cfg, s.predictorVals())
	get := func(name string) float64 {
		idx := arch.PredictorIndex(name)
		if idx < 0 {
			panic("eval: unknown predictor " + name)
		}
		return vals[idx]
	}
	return r.perf.Predict(get), r.pow.Predict(get)
}
