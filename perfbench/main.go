// Command perfbench is the repository's end-to-end benchmark. It drives
// the pipeline and the daemon in-process through their public functions
// and prints, as its last line, one JSON object with the run's metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload report|predict|simulate-mix \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// turns obs tracing on for part of the run and reports per-layer
// metrics instead. README.md in this directory explains the workloads
// and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	clients int
	workDir string
	log     io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	tally
	// problems lists every failed check; a non-empty list makes the run
	// incorrect even when no single operation was counted as failed.
	problems []string
	// endToEnd holds the untraced metrics the final line reports
	// (--trace 0); perLayer the traced ones (--trace 1). wall holds the
	// untraced wall-clock figures, printed but not in the final line.
	endToEnd metricSet
	perLayer metricSet
	wall     metricSet
	// detail holds workload-specific figures printed for people, such as
	// the measured traffic and the attribution of time to layers.
	detail map[string]any
	// runs is how many measured repetitions (passes or requests) the
	// metrics rest on.
	runs int64
}

func newOutcome() *outcome {
	return &outcome{endToEnd: metricSet{}, perLayer: metricSet{}, wall: metricSet{}, detail: map[string]any{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload func(cfg config) (*outcome, error)

var workloads = map[string]workload{
	"report":       runReport,
	"predict":      runPredict,
	"simulate-mix": runSimulateMix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: report, predict or simulate-mix")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	models := fs.String("write-models", "", "train the serve workloads' models, save them to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *models != "" {
		if err := trainModels(*models); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload report|predict|simulate-mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	// A ring large enough that no span of a traced run is overwritten
	// before it is read; replaced before any goroutine can start a span.
	obs.DefaultTracer = obs.NewTracer(1 << 19)
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		clients: clientCount(),
		workDir: work,
		log:     stderr,
	}
	prov := provenance(cfg, *name)
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d revision=%s go=%s nproc=%d GOMAXPROCS=%d clients=%d\n",
		*name, cfg.seed, *trace, prov["revision"], prov["go"], prov["nproc"], prov["gomaxprocs"], cfg.clients)

	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if obs.DefaultTracer.Total() > int64(obs.DefaultTracer.Capacity()) {
		out.problem("span ring overflowed (%d spans, capacity %d): attribution incomplete",
			obs.DefaultTracer.Total(), obs.DefaultTracer.Capacity())
	}
	prov["runs"] = out.runs
	for _, e := range endToEnd {
		if m, ok := out.endToEnd[e.name]; !ok || m.Unit != e.unit {
			out.problem("end-to-end metric %s [%s] not measured", e.name, e.unit)
		}
	}
	res := result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.endToEnd,
	}
	if cfg.trace {
		res.Metrics = out.perLayer
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	printTable(stdout, "metrics", res.Metrics)
	if !cfg.trace {
		printTable(stdout, "wall-clock figures (printed, not in the result line)", out.wall)
	}
	fmt.Fprintf(stdout, "failed_share %.6g (%d of %d operations)\n", out.failedShare(), out.failed, out.attempted)
	detail := map[string]any{"provenance": prov, "workload": out.detail, "wall": out.wall, "failed_share": out.failedShare()}
	if b, err := json.Marshal(detail); err == nil {
		fmt.Fprintf(stdout, "detail %s\n", b)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func printTable(w io.Writer, title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// buildDir is where run.sh builds the benchmark, relative to the
// repository root it runs from; scratch files of a run live there too,
// so a run writes nothing outside the checkout.
const buildDir = ".bench_build"

// clientCount is the load generator's closed-loop client count: two, as
// the workloads specify, but never more than there are CPUs.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters snapshots the obs registry by name. Counters the program has
// never incremented are absent.
func counters() map[string]int64 { return obs.DefaultRegistry.CounterValues() }

// delta is after[name] − before[name] and whether the counter exists at
// all after the window.
func delta(before, after map[string]int64, name string) (int64, bool) {
	v, ok := after[name]
	return v - before[name], ok
}

// memSample is the runtime's allocation and GC state at one instant, or
// summed over windows.
type memSample struct {
	alloc   uint64
	numGC   uint32
	pauseNS uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// add returns m plus the change from a to b.
func (m memSample) add(a, b memSample) memSample {
	return memSample{
		alloc:   m.alloc + b.alloc - a.alloc,
		numGC:   m.numGC + b.numGC - a.numGC,
		pauseNS: m.pauseNS + b.pauseNS - a.pauseNS,
	}
}

// setRuntime records the runtime.* per-layer metrics, per operation, for
// windows whose summed change is d and in which ops operations
// completed. The figures are process-wide: on the serve workloads they
// include the in-process load generator.
func setRuntime(m metricSet, d memSample, ops int64) {
	n := float64(ops)
	m.setLayer("runtime.alloc_mb_per_op", ratio(float64(d.alloc)/(1<<20), n))
	m.setLayer("runtime.gc_cycles", ratio(float64(d.numGC), n))
	m.setLayer("runtime.gc_pause_ms", ratio(float64(d.pauseNS)/1e6, n))
}

// endToEnd lists the metrics of the result line of an untraced run,
// which every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every per-layer metric and its unit. Each workload
// reports all of them: a layer the workload never runs reports 0.
var perLayer = []struct{ name, unit string }{
	{"core.train_s", "s"},
	{"core.dataset_s", "s"},
	{"regression.fit_s", "s"},
	{"core.validate_s", "s"},
	{"paretostudy.run_s", "s"},
	{"depthstudy.run_s", "s"},
	{"depthstudy.self_s", "s"},
	{"heterostudy.run_s", "s"},
	{"core.sweep_s", "s"},
	{"core.sweep.points_per_s", "1/s"},
	{"trace.synth_s", "s"},
	{"eval.sim.batch_s", "s"},
	{"eval.sim.worker_busy_ratio", "ratio"},
	{"eval.sim.cache_hit_ratio", "ratio"},
	{"sim.runs", "count"},
	{"sim.minst_per_s", "Minst/s"},
	{"sim.warm_hit_ratio", "ratio"},
	{"sim.replay_ratio", "ratio"},
	{"serve.handler_p50_ms", "ms"},
	{"client.overhead_p50_ms", "ms"},
	{"serve.predict.batch_points", "count"},
	{"serve.predict.nonengine_ms", "ms"},
	{"serve.simulate.batch_points", "count"},
	{"serve.view.hit_ratio", "ratio"},
	{"serve.view.builds", "count"},
	{"serve.view.build_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "1/op"},
	{"runtime.gc_pause_ms", "ms/op"},
	{"trace_overhead_pct", "%"},
	{"attrib.unaccounted_pct", "%"},
}

// The per-layer metrics each kind of workload exercises.
var (
	commonLayerNames = []string{
		"runtime.alloc_mb_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms",
		"trace_overhead_pct", "attrib.unaccounted_pct",
	}
	reportLayerNames = []string{
		"core.train_s", "core.dataset_s", "regression.fit_s", "core.validate_s",
		"paretostudy.run_s", "depthstudy.run_s", "depthstudy.self_s", "heterostudy.run_s",
		"core.sweep_s", "core.sweep.points_per_s", "trace.synth_s",
	}
	simLayerNames = []string{
		"eval.sim.batch_s", "eval.sim.worker_busy_ratio", "eval.sim.cache_hit_ratio",
		"sim.runs", "sim.minst_per_s", "sim.warm_hit_ratio", "sim.replay_ratio",
	}
	serveLayerNames   = []string{"serve.handler_p50_ms", "client.overhead_p50_ms"}
	predictLayerNames = []string{"serve.predict.batch_points", "serve.predict.nonengine_ms"}
	mixLayerNames     = []string{"serve.simulate.batch_points", "serve.view.hit_ratio", "serve.view.builds", "serve.view.build_ms"}
)

// setLayer records a per-layer metric under its listed unit.
func (m metricSet) setLayer(name string, v float64) {
	for _, l := range perLayer {
		if l.name == name {
			m.set(name, l.unit, v)
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// fillUnexercised reports 0 for every per-layer metric of a layer the
// workload does not run. Metrics of layers it does run stay missing when
// the program no longer provides their inputs.
func (m metricSet) fillUnexercised(exercised ...[]string) {
	ran := map[string]bool{}
	for _, names := range append(exercised, commonLayerNames) {
		for _, n := range names {
			ran[n] = true
		}
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok && !ran[l.name] {
			m.set(l.name, l.unit, 0)
		}
	}
}
