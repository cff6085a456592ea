package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/core/depthstudy"
	"repro/internal/core/heterostudy"
	"repro/internal/core/paretostudy"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
)

// The report workload is the paper's pipeline at the ROADMAP baseline
// budget. Its inputs are fixed (seed 2007 is the baseline), so its
// rendered tables have one recorded digest; --seed is recorded only.
const (
	reportSeed       = 2007
	reportSamples    = 200
	reportValidation = 20
	traceLen         = 40000
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 9
	// minPasses is the fewest measured report passes per run.
	minPasses = 3
)

// reportDigest is the SHA-256 of every table and figure a baseline
// report renders. A pass whose tables hash differently is wrong.
const reportDigest = "f4879b2fb11b7159e0a42ad6418e39089026f6ffc5cd87b18264aff8049d1298"

func reportOptions() core.Options {
	return core.Options{
		TrainSamples:      reportSamples,
		ValidationSamples: reportValidation,
		TraceLen:          traceLen,
		Seed:              reportSeed,
	}
}

// reportPass is one measured run of the five study phases.
type reportPass struct {
	wall   time.Duration
	cpu    time.Duration
	phases map[string]time.Duration
	digest string
	// before/after bracket the pass in the obs registry.
	before, after map[string]int64
}

// runReportPass builds a fresh explorer and runs train → validate →
// pareto → depth → hetero, timing (wall and CPU) only the five phases.
// The tables are rendered and hashed afterwards, untimed.
func runReportPass() (*reportPass, error) {
	e, err := core.New(reportOptions())
	if err != nil {
		return nil, err
	}
	p := &reportPass{phases: make(map[string]time.Duration), before: counters()}
	phase := func(name string, fn func() error) error {
		sp := obs.Begin("bench." + name)
		start := time.Now()
		err := fn()
		p.phases[name] = time.Since(start)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var (
		val    *core.ValidationReport
		pareto map[string]*paretostudy.Result
		depth  map[string]*depthstudy.Result
		hetero *heterostudy.Result
	)
	root := obs.Begin("bench.report")
	cpu0, start := cpuTime(), time.Now()
	err = phase("train", func() error { return e.TrainContext(context.Background()) })
	if err == nil {
		err = phase("validate", func() (err error) { val, err = e.Validate(0); return err })
	}
	if err == nil {
		err = phase("pareto", func() (err error) {
			pareto, err = paretostudy.RunSuite(e, paretostudy.Options{SimulateFrontier: true})
			return err
		})
	}
	if err == nil {
		err = phase("depth", func() (err error) {
			depth, err = depthstudy.RunSuite(e, depthstudy.Options{SimulateValidation: true})
			return err
		})
	}
	if err == nil {
		err = phase("hetero", func() (err error) {
			hetero, err = heterostudy.Run(e, nil, heterostudy.Options{SimulateValidation: true, Seed: reportSeed})
			return err
		})
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	root.End()
	p.after = counters()
	if err != nil {
		return p, err
	}
	p.digest, err = tablesDigest(e, val, pareto, depth, hetero)
	return p, err
}

// tablesDigest renders the tables and figures `dse report` prints and
// hashes them.
func tablesDigest(e *core.Explorer, val *core.ValidationReport, par map[string]*paretostudy.Result,
	dep map[string]*depthstudy.Result, het *heterostudy.Result) (string, error) {
	avg, err := depthstudy.Average(dep)
	if err != nil {
		return "", err
	}
	parts := []string{report.Figure1(val)}
	for _, b := range []string{"ammp", "mcf"} {
		parts = append(parts, report.Figure2(e.StudySpace, par[b]), report.Figure3(par[b]))
	}
	parts = append(parts,
		report.Figure4(par), report.Table2(par),
		report.Figure5a(avg), report.Figure5b(dep, e.StudySpace), report.Figure6(avg),
		report.Figure7(dep["gzip"]), report.Figure7(dep["mcf"]),
		report.Table4(het), report.Figure8(het), report.Figure9(het, e.Benchmarks()))
	sum := sha256.Sum256([]byte(strings.Join(parts, "\n")))
	return hex.EncodeToString(sum[:]), nil
}

// setupTimes is a workload's set-up cost: the medians over its set-ups
// of the process CPU time and of the wall time they took.
type setupTimes struct {
	cpu, wall float64
	synth     float64 // report only: trace synthesis wall time
}

// reportSetup times core.New plus synthesis of the nine input traces,
// setupReps times. It synthesizes with trace.Synthesize: trace.ForBenchmark
// memoizes per process, so only its first call per benchmark does the
// work, and the report passes reuse those memoized traces.
func reportSetup() (setupTimes, error) {
	var cpus, walls, synths []float64
	for i := 0; i < setupReps; i++ {
		cpu0, start := cpuTime(), time.Now()
		e, err := core.New(reportOptions())
		if err != nil {
			return setupTimes{}, err
		}
		var s time.Duration
		for _, b := range e.Benchmarks() {
			prof, _ := trace.ProfileFor(b) // core.New rejects unknown names
			t := time.Now()
			if _, err := trace.Synthesize(prof, traceLen); err != nil {
				return setupTimes{}, err
			}
			s += time.Since(t)
		}
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		synths = append(synths, s.Seconds())
	}
	return setupTimes{cpu: median(cpus), wall: median(walls), synth: median(synths)}, nil
}

func runReport(cfg config) (*outcome, error) {
	out := newOutcome()
	setup, err := reportSetup()
	if err != nil {
		return nil, err
	}
	check := func(p *reportPass, err error) bool {
		switch {
		case err != nil:
			out.problem("report pass: %v", err)
		case p.digest != reportDigest:
			out.problem("rendered tables digest %s, recorded %s", p.digest, reportDigest)
		default:
			if d, _ := delta(p.before, p.after, "eval.guard.divergences"); d != 0 {
				out.problem("eval.guard.divergences rose by %d", d)
				break
			}
			return true
		}
		return false
	}
	// An untimed first pass lets the heap and lazily built state settle.
	warm, err := runReportPass()
	if ok := check(warm, err); !ok {
		out.add(false)
		return out, nil
	}
	out.add(true)
	out.detail["digest"] = warm.digest

	var plain, traced []*reportPass
	var mem memSample // summed over the untraced passes
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; ; i++ {
		done := time.Now().After(deadline)
		if cfg.trace {
			if done && len(plain) >= 2 && len(traced) >= 2 {
				break
			}
		} else if done && len(plain) >= minPasses {
			break
		}
		// A traced run alternates untraced and traced passes so both see
		// the same machine state; the untraced ones give the overhead
		// baseline and the runtime figures.
		tracedPass := cfg.trace && i%2 == 1
		// Each pass starts from a collected heap, as a fresh process
		// would, instead of paying for garbage the previous pass left.
		runtime.GC()
		obs.Enable(tracedPass)
		m0 := readMem()
		p, err := runReportPass()
		m1 := readMem()
		obs.Enable(false)
		ok := check(p, err)
		out.add(ok)
		if !ok {
			return out, nil
		}
		if tracedPass {
			traced = append(traced, p)
			continue
		}
		mem = mem.add(m0, m1)
		plain = append(plain, p)
	}
	walls := func(ps []*reportPass) []float64 {
		var w []float64
		for _, p := range ps {
			w = append(w, p.wall.Seconds())
		}
		return w
	}
	lat := summarize(walls(plain))
	out.runs = int64(len(plain) + len(traced))
	out.detail["pass_s"] = walls(plain)
	out.detail["passes"] = lat.N
	phaseMedians := map[string]float64{}
	for _, name := range []string{"train", "validate", "pareto", "depth", "hetero"} {
		var xs []float64
		for _, p := range plain {
			xs = append(xs, p.phases[name].Seconds())
		}
		phaseMedians[name] = median(xs)
	}
	out.detail["phase_s"] = phaseMedians
	out.detail["traffic"] = map[string]any{
		"designs_trained_per_bench":   reportSamples,
		"designs_validated_per_bench": reportValidation,
		"benchmarks":                  len(trace.Benchmarks()),
		"trace_len":                   traceLen,
	}

	var cpus []float64
	for _, p := range plain {
		cpus = append(cpus, p.cpu.Seconds())
	}
	m := out.endToEnd
	m.set("setup_s", "s", setup.cpu)
	m.set("cpu_ms_per_op", "ms", median(cpus)*1e3)
	m.set("peak_rss_mb", "MB", peakRSSMB())
	w := out.wall
	w.set("setup_wall_s", "s", setup.wall)
	w.set("report_s", "s", lat.P50)
	w.set("p50_ms", "ms", lat.P50*1e3)
	w.set("ops_per_s", "1/s", 1/lat.P50)
	if !cfg.trace {
		return out, nil
	}

	// Per-layer metrics: the median over traced passes of each figure.
	spans := spansOf(obs.DefaultTracer.Snapshot())
	roots := named(spans, "bench.report")
	if len(roots) != len(traced) {
		out.problem("found %d traced report spans for %d traced passes", len(roots), len(traced))
		return out, nil
	}
	per := map[string][]float64{}
	perSelf := map[string][]float64{}
	for i, p := range traced {
		layers, self := reportLayers(p, spans, roots[i])
		for name, v := range layers {
			per[name] = append(per[name], v)
		}
		for layer, v := range self {
			perSelf[layer] = append(perSelf[layer], v)
		}
	}
	pl := out.perLayer
	for name, xs := range per {
		pl.setLayer(name, median(xs))
	}
	// Every instant of a pass belongs to exactly one layer, so a pass's
	// self times add up to its wall time.
	self := map[string]float64{}
	for layer, xs := range perSelf {
		self[layer] = median(xs)
	}
	out.detail["self_s_by_layer"] = self
	pl.setLayer("trace.synth_s", setup.synth)
	setRuntime(pl, mem, int64(len(plain)))
	pl.setLayer("trace_overhead_pct", 100*(median(walls(traced))/median(walls(plain))-1))
	pl.fillUnexercised(reportLayerNames, simLayerNames)
	return out, nil
}

// reportLayers computes one traced pass's per-layer figures from the
// spans inside its window and its counter deltas, and every layer's self
// time in the pass.
func reportLayers(p *reportPass, all []span, root span) (layers, self map[string]float64) {
	win := within(all, root.lo, root.hi)
	r := map[string]float64{}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	train := p.phases["train"].Seconds()
	dataset := sec(unionLen(named(win, "core.dataset")))
	r["core.train_s"] = train
	r["core.dataset_s"] = dataset
	r["regression.fit_s"] = train - dataset
	r["core.validate_s"] = p.phases["validate"].Seconds()
	r["paretostudy.run_s"] = p.phases["pareto"].Seconds()
	r["depthstudy.run_s"] = p.phases["depth"].Seconds()
	r["heterostudy.run_s"] = p.phases["hetero"].Seconds()
	parts := partition(win, root.lo, root.hi)
	r["depthstudy.self_s"] = sec(parts["depthstudy"])
	sweeps := named(win, "core.sweep")
	var points int64
	for _, s := range sweeps {
		points += s.attrInt("to") - s.attrInt("from")
	}
	r["core.sweep_s"] = sec(unionLen(sweeps))
	r["core.sweep.points_per_s"] = ratio(float64(points), sec(sumDur(sweeps)))
	simLayers(r, win, p.before, p.after)
	r["attrib.unaccounted_pct"] = unaccountedPct(parts)
	self = map[string]float64{}
	for layer, t := range parts {
		self[layer] = sec(t)
	}
	return r, self
}

// simLayers adds the simulation-engine figures shared by report and
// simulate-mix, from the spans and counter deltas of one window.
func simLayers(r map[string]float64, win []span, before, after map[string]int64) {
	batches := named(win, "eval.sim.batch")
	invokes := named(win, "eval.sim.invoke")
	var capacity, points int64
	for _, b := range batches {
		capacity += b.attrInt("workers") * b.dur()
		points += b.attrInt("n")
	}
	busy := sumDur(invokes)
	r["eval.sim.batch_s"] = float64(unionLen(batches)) / 1e9
	r["eval.sim.worker_busy_ratio"] = ratio(float64(busy), float64(capacity))
	// Every engine-cache miss is one backend invocation, and each has a
	// span; the rest of the submitted points were answered from cache.
	if points > 0 {
		r["eval.sim.cache_hit_ratio"] = 1 - float64(len(invokes))/float64(points)
	} else {
		r["eval.sim.cache_hit_ratio"] = 0
	}
	simRan := len(invokes) > 0
	counter := func(name string) (float64, bool) {
		d, ok := delta(before, after, name)
		return float64(d), ok || !simRan
	}
	if runs, ok := counter("sim.runs"); ok {
		r["sim.runs"] = runs
	}
	if inst, ok := counter("sim.instructions"); ok {
		r["sim.minst_per_s"] = ratio(inst/1e6, float64(busy)/1e9)
	}
	hits, okH := counter("sim.warm.hits")
	misses, okM := counter("sim.warm.misses")
	if okH && okM {
		// Replays are a subset of warm hits and may legitimately be zero.
		replays, _ := delta(before, after, "sim.warm.replays")
		r["sim.warm_hit_ratio"] = ratio(hits, hits+misses)
		r["sim.replay_ratio"] = ratio(float64(replays), hits+misses)
	}
}
