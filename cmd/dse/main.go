// Command dse reproduces the paper's design-space studies end to end:
// it samples the 375,000-point design space, simulates the samples, fits
// per-benchmark performance and power regression models, and runs the
// pareto-frontier, pipeline-depth and multiprocessor-heterogeneity
// analyses, printing the paper's tables and figures as text.
//
// Usage:
//
//	dse [flags] <command>
//
// Commands:
//
//	train     fit models and print their summaries
//	validate  model validation error distributions   (Figure 1)
//	pareto    pareto frontier study                   (Figures 2-4, Table 2)
//	depth     pipeline depth study                    (Figures 5-7)
//	hetero    multiprocessor heterogeneity study      (Table 4, Figures 8-9)
//	search    heuristic search vs exhaustive sweep    (future-work extension)
//	report    run everything
//	dataset   build the training dataset checkpoints (shardable)
//
// The dataset command partitions across processes: -shard i/n simulates
// one deterministic slice into its own checkpoint, -merge n reassembles
// completed shards into the standard checkpoint files (byte-identical to
// a single-process run), and -distribute n forks n workers, restarts
// failures from their checkpoints, and merges.
//
// Flags control the training budget; see -help.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	samples := fs.Int("samples", 1000, "training designs sampled uniformly at random (paper: 1000)")
	validation := fs.Int("validation", 100, "validation designs (paper: 100)")
	tracelen := fs.Int("tracelen", 100000, "synthetic trace length per benchmark")
	seed := fs.Uint64("seed", 2007, "sampling seed")
	workers := fs.Int("workers", 0, "evaluation worker goroutines for simulation batches and model sweeps (0 = all cores)")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
	noSim := fs.Bool("nosim", false, "skip simulator validation passes (model-only, much faster)")
	targets := fs.Int("delaytargets", 40, "delay bins for the discretized pareto frontier")
	saveModels := fs.String("savemodels", "", "write trained models to this JSON file")
	csvDir := fs.String("csvdir", "", "also write each figure's data series as CSV into this directory")
	loadModels := fs.String("loadmodels", "", "load models from this JSON file instead of training")
	traceFile := fs.String("trace", "", "enable span tracing and progress lines; write the span log (JSONL) to this file")
	manifestFile := fs.String("manifest", "", "write a run manifest (JSON) describing this invocation to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	checkpointDir := fs.String("checkpoint", "", "write crash-safe training checkpoints into this directory")
	resume := fs.Bool("resume", false, "resume from checkpoints in the -checkpoint directory (results are bit-identical to an uninterrupted run)")
	deadline := fs.Duration("deadline", 0, "per-batch evaluation deadline (0 = none); an expired batch fails with a deadline error")
	shardSpec := fs.String("shard", "", "compute only shard i/n of the dataset work domain (e.g. 0/4; requires -checkpoint; dataset command only)")
	mergeN := fs.Int("merge", 0, "merge n completed shard checkpoints into the standard checkpoint files (requires -checkpoint; dataset command only)")
	distribute := fs.Int("distribute", 0, "coordinator mode: fork n worker processes (one per shard), restart failures from their checkpoints, then merge (requires -checkpoint; dataset command only)")
	stallTimeout := fs.Duration("stall-timeout", 0, "with -distribute: kill and restart (with resume) a worker whose progress beacon shows no change for this long; must exceed worker startup plus one checkpoint chunk (0 = no liveness monitoring)")
	speculate := fs.Bool("speculate", false, "with -distribute and -stall-timeout: launch a speculative backup attempt for tail stragglers; the first finisher wins and the merged output is unchanged")
	shardSuffix := fs.String("shardsuffix", "", "internal: append this suffix to shard checkpoint and beacon filenames (how a speculative backup attempt avoids racing the primary on files)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one command: train, validate, pareto, depth, hetero, search, report or dataset")
	}
	cmd := fs.Arg(0)
	switch cmd {
	case "train", "validate", "pareto", "depth", "hetero", "search", "report", "dataset":
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}

	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}

	shardable := cmd == "dataset"
	shardModes := 0
	for _, on := range []bool{*shardSpec != "", *mergeN > 0, *distribute > 0} {
		if on {
			shardModes++
		}
	}
	if shardModes > 1 {
		return fmt.Errorf("-shard, -merge and -distribute are mutually exclusive")
	}
	if shardModes == 1 {
		if !shardable {
			return fmt.Errorf("-shard/-merge/-distribute apply to the dataset command only")
		}
		if *checkpointDir == "" {
			return fmt.Errorf("-shard/-merge/-distribute require -checkpoint (shard outputs are checkpoints)")
		}
	}
	if *mergeN < 0 || *distribute < 0 {
		return fmt.Errorf("-merge and -distribute must be >= 0")
	}
	if *stallTimeout < 0 {
		return fmt.Errorf("-stall-timeout must be >= 0")
	}
	if *stallTimeout > 0 && *distribute == 0 {
		return fmt.Errorf("-stall-timeout requires -distribute (the coordinator runs the beacon monitor)")
	}
	if *speculate && (*distribute == 0 || *stallTimeout == 0) {
		return fmt.Errorf("-speculate requires -distribute and -stall-timeout (the straggler projection reads beacons)")
	}
	if *shardSuffix != "" && *shardSpec == "" {
		return fmt.Errorf("-shardsuffix applies to -shard workers only")
	}
	shardIdx, shardCount := 0, 1
	if *shardSpec != "" {
		var err error
		if shardIdx, shardCount, err = shard.ParseSpec(*shardSpec); err != nil {
			return err
		}
	}
	if shardable && *checkpointDir == "" {
		return fmt.Errorf("the dataset command requires -checkpoint (its outputs are checkpoint files)")
	}

	// Observability. Tracing (spans, latency histograms, progress lines)
	// is off by default and costs one atomic load per operation; all
	// diagnostic output goes to stderr so study output on `out` is
	// bit-identical with or without these flags.
	if *traceFile != "" {
		obs.Enable(true)
	}
	if *pprofAddr != "" {
		bound, shutdown, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "dse: pprof listening on http://%s/debug/pprof/\n", bound)
	}
	opts := core.DefaultOptions()
	opts.TrainSamples = *samples
	opts.ValidationSamples = *validation
	opts.TraceLen = *tracelen
	opts.Seed = *seed
	opts.Workers = *workers
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return err
		}
		opts.CheckpointDir = *checkpointDir
		opts.Resume = *resume
	}
	opts.ShardSuffix = *shardSuffix
	opts.BatchTimeout = *deadline

	e, err := core.New(opts)
	if err != nil {
		return err
	}

	// The run manifest records what ran over what and where the time went:
	// one JSON per invocation, with per-phase engine-counter deltas cut by
	// StatsEpoch so sequential phases never double-count.
	var man *obs.Manifest
	if *manifestFile != "" {
		man = obs.NewManifest("dse", cmd, args)
		man.Seed = *seed
		man.SpaceSize = e.StudySpace.Size()
		man.SampleSpaceSize = e.SampleSpace.Size()
		man.Benchmarks = e.Benchmarks()
		man.Workers = e.Options().Workers
	}
	phase := func(name string, fn func() error) error {
		if man == nil {
			return fn()
		}
		pt := man.StartPhase(name)
		err := fn()
		sim, model := e.StatsEpoch()
		pt.End(engineStatsMap(sim, model))
		return err
	}

	if shardable {
		// Dataset building simulates; it needs no models.
	} else if *loadModels != "" {
		err = phase("load_models", func() error {
			f, err := os.Open(*loadModels)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := e.LoadModels(f); err != nil {
				return err
			}
			fmt.Fprintf(out, "loaded models from %s\n\n", *loadModels)
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		err = phase("train", func() error {
			start := time.Now()
			fmt.Fprintf(out, "training %d-sample models on %d benchmarks (trace length %d)...\n",
				opts.TrainSamples, len(e.Benchmarks()), opts.TraceLen)
			if err := e.Train(); err != nil {
				return err
			}
			fmt.Fprintf(out, "trained in %.1fs\n\n", time.Since(start).Seconds())
			return nil
		})
		if err != nil {
			return err
		}
	}
	if *saveModels != "" {
		// Atomic replace: a dsed hot-reloading this file never reads a
		// torn write.
		if err := atomicio.WriteTo(*saveModels, 0o644, e.SaveModels); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved models to %s\n\n", *saveModels)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	switch cmd {
	case "train":
		err = phase("summaries", func() error { return cmdTrain(e, out) })
	case "validate":
		err = phase("validate", func() error { return cmdValidate(e, out, *csvDir) })
	case "pareto":
		err = phase("pareto", func() error { return cmdPareto(e, out, *targets, !*noSim, *csvDir) })
	case "depth":
		err = phase("depth", func() error { return cmdDepth(e, out, !*noSim, *csvDir) })
	case "hetero":
		err = phase("hetero", func() error { return cmdHetero(e, out, !*noSim, *csvDir) })
	case "search":
		err = phase("search", func() error { return cmdSearch(e, out) })
	case "dataset":
		sh := &shardRun{
			e: e, out: out, man: man,
			idx: shardIdx, count: shardCount, explicit: *shardSpec != "",
			merge: *mergeN, distribute: *distribute,
			stallTimeout: *stallTimeout, speculate: *speculate,
			checkpointDir: *checkpointDir,
		}
		// Worker argv is reconstructed from the parsed flags (not the raw
		// argument list), so every worker inherits exactly the options that
		// shape the run identity plus -resume — a restarted worker picks up
		// at its own checkpoint instead of redoing its shard. A non-empty
		// suffix builds a speculative backup attempt, which writes its
		// shard files (and diagnostics) under suffixed names.
		sh.workerArgs = func(i, n int, suffix string) []string {
			wargs := []string{
				"-samples", fmt.Sprint(*samples),
				"-validation", fmt.Sprint(*validation),
				"-tracelen", fmt.Sprint(*tracelen),
				"-seed", fmt.Sprint(*seed),
				"-workers", fmt.Sprint(*workers),
				"-checkpoint", *checkpointDir,
				"-resume",
			}
			if *benchList != "" {
				wargs = append(wargs, "-benchmarks", *benchList)
			}
			if *deadline != 0 {
				wargs = append(wargs, "-deadline", deadline.String())
			}
			if *traceFile != "" {
				wargs = append(wargs, "-trace", fmt.Sprintf("%s.shard%d%s", *traceFile, i, suffix))
			}
			if *manifestFile != "" {
				wargs = append(wargs, "-manifest", fmt.Sprintf("%s.shard%d%s", *manifestFile, i, suffix))
			}
			if suffix != "" {
				wargs = append(wargs, "-shardsuffix", suffix)
			}
			return append(wargs, "-shard", fmt.Sprintf("%d/%d", i, n), cmd)
		}
		err = phase(cmd, sh.run)
	case "report":
		for _, st := range []struct {
			name string
			fn   func() error
		}{
			{"validate", func() error { return cmdValidate(e, out, *csvDir) }},
			{"pareto", func() error { return cmdPareto(e, out, *targets, !*noSim, *csvDir) }},
			{"depth", func() error { return cmdDepth(e, out, !*noSim, *csvDir) }},
			{"hetero", func() error { return cmdHetero(e, out, !*noSim, *csvDir) }},
		} {
			if err = phase(st.name, st.fn); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}

	if man != nil {
		var tr *obs.Tracer
		if *traceFile != "" {
			tr = obs.DefaultTracer
		}
		man.Finish(obs.DefaultRegistry, tr)
		if err := man.WriteFile(*manifestFile); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dse: wrote run manifest to %s\n", *manifestFile)
	}
	if *traceFile != "" {
		spans := obs.DefaultTracer.Snapshot()
		if err := obs.WriteSpansFile(*traceFile, spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dse: wrote %d trace spans to %s (%d recorded in total)\n",
			len(spans), *traceFile, obs.DefaultTracer.Total())
	}
	return nil
}

// engineStatsMap flattens both engines' counter deltas into the generic
// stats map a manifest phase carries, dropping zero entries.
func engineStatsMap(sim, model eval.EngineStats) map[string]int64 {
	m := make(map[string]int64)
	set := func(k string, v int64) {
		if v != 0 {
			m[k] = v
		}
	}
	set("sim_evaluations", sim.Evaluations)
	set("sim_batches", sim.BatchCalls)
	set("sim_cache_hits", sim.CacheHits)
	set("sim_cache_misses", sim.CacheMisses)
	set("sim_warm_hits", sim.WarmHits)
	set("sim_warm_misses", sim.WarmMisses)
	set("sim_panics_recovered", sim.PanicsRecovered)
	set("sim_retries", sim.Retries)
	set("sim_guard_checks", sim.GuardChecks)
	set("sim_guard_divergences", sim.GuardDivergences)
	if sim.Degraded {
		set("sim_degraded", 1)
	}
	set("model_evaluations", model.Evaluations)
	set("model_batches", model.BatchCalls)
	set("model_swept_points", model.SweptPoints)
	set("model_panics_recovered", model.PanicsRecovered)
	set("model_retries", model.Retries)
	set("model_guard_checks", model.GuardChecks)
	set("model_guard_divergences", model.GuardDivergences)
	if model.Degraded {
		set("model_degraded", 1)
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// writeCSV opens dir/name and hands the file to emit.
func writeCSV(dir, name string, emit func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdTrain(e *core.Explorer, out io.Writer) error {
	for _, bench := range e.Benchmarks() {
		perf, pow, err := e.Models(bench)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "=== %s performance model ===\n%s\n", bench, perf.Summary())
		fmt.Fprintf(out, "=== %s power model ===\n%s\n", bench, pow.Summary())
		if assoc, err := e.PredictorAssociations(bench); err == nil {
			t := report.NewTable(
				fmt.Sprintf("%s predictor associations (Spearman rank correlation)", bench),
				"predictor", "perf rho", "power rho")
			for _, a := range assoc {
				t.AddRow(a.Predictor,
					fmt.Sprintf("%+.3f", a.PerfRho),
					fmt.Sprintf("%+.3f", a.PowerRho))
			}
			fmt.Fprintln(out, t.String())
		}
	}
	return nil
}

func cmdValidate(e *core.Explorer, out io.Writer, csvDir string) error {
	rep, err := e.Validate(0)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, report.Figure1(rep))
	return writeCSV(csvDir, "figure1.csv", func(w io.Writer) error {
		return report.Figure1CSV(w, rep)
	})
}

func cmdPareto(e *core.Explorer, out io.Writer, targets int, simulate bool, csvDir string) error {
	results, err := paretostudy.RunSuite(e, paretostudy.Options{
		DelayTargets:     targets,
		SimulateFrontier: simulate,
	})
	if err != nil {
		return err
	}
	// Figure 2 for the paper's two representative benchmarks when
	// available, otherwise the first benchmark.
	shown := 0
	for _, bench := range []string{"ammp", "mcf"} {
		if r, ok := results[bench]; ok {
			fmt.Fprintln(out, report.Figure2(e.StudySpace, r))
			fmt.Fprintln(out, report.Figure3(r))
			shown++
		}
	}
	if shown == 0 {
		for _, bench := range e.Benchmarks() {
			fmt.Fprintln(out, report.Figure2(e.StudySpace, results[bench]))
			fmt.Fprintln(out, report.Figure3(results[bench]))
			break
		}
	}
	if simulate {
		fmt.Fprintln(out, report.Figure4(results))
	}
	fmt.Fprintln(out, report.Table2(results))
	if csvDir != "" {
		for bench, r := range results {
			r := r
			if err := writeCSV(csvDir, "figure2_"+bench+".csv", func(w io.Writer) error {
				return report.Figure2CSV(w, e.StudySpace, r)
			}); err != nil {
				return err
			}
			if err := writeCSV(csvDir, "figure3_"+bench+".csv", func(w io.Writer) error {
				return report.Figure3CSV(w, r)
			}); err != nil {
				return err
			}
		}
		if err := writeCSV(csvDir, "table2.csv", func(w io.Writer) error {
			return report.Table2CSV(w, results)
		}); err != nil {
			return err
		}
	}
	return nil
}

func cmdDepth(e *core.Explorer, out io.Writer, simulate bool, csvDir string) error {
	results, err := depthstudy.RunSuite(e, depthstudy.Options{SimulateValidation: simulate})
	if err != nil {
		return err
	}
	avg, err := depthstudy.Average(results)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, report.Figure5a(avg))
	fmt.Fprintln(out, report.Figure5b(results, e.StudySpace))
	if simulate {
		fmt.Fprintln(out, report.Figure6(avg))
		for _, bench := range []string{"gzip", "mcf"} {
			if r, ok := results[bench]; ok {
				fmt.Fprintln(out, report.Figure7(r))
			}
		}
	}
	return writeCSV(csvDir, "figure5a.csv", func(w io.Writer) error {
		return report.Figure5aCSV(w, avg)
	})
}

// cmdSearch contrasts heuristic search over the models against the
// exhaustive 262,500-point sweep, the paper's proposed extension for
// larger design spaces.
func cmdSearch(e *core.Explorer, out io.Writer) error {
	space := e.StudySpace
	t := report.NewTable("Heuristic search vs exhaustive prediction (modeled bips^3/w optimum)",
		"bench", "exhaustive best", "hill-climb best", "evals", "match")
	for _, bench := range e.Benchmarks() {
		preds, err := e.ExhaustivePredict(bench)
		if err != nil {
			return err
		}
		bestEff := 0.0
		for _, p := range preds {
			if p.BIPS <= 0 || p.Watts <= 0 {
				continue
			}
			if eff := metrics.BIPS3W(p.BIPS, p.Watts); eff > bestEff {
				bestEff = eff
			}
		}
		// Neighborhoods are scored as batches on the evaluation engine,
		// so each hill-climbing step's candidate moves run concurrently.
		obj := func(cfgs []arch.Config) ([]float64, error) {
			preds, err := e.PredictBatch(context.Background(), eval.RequestsFor(cfgs, bench))
			if err != nil {
				return nil, err
			}
			scores := make([]float64, len(preds))
			for i, p := range preds {
				if p.BIPS > 0 && p.Watts > 0 {
					scores[i] = metrics.BIPS3W(p.BIPS, p.Watts)
				}
			}
			return scores, nil
		}
		res, err := search.HillClimbBatch(space, obj, search.Options{Seed: e.Options().Seed, Restarts: 12})
		if err != nil {
			return err
		}
		t.AddRow(bench,
			fmt.Sprintf("%.4g", bestEff),
			fmt.Sprintf("%.4g", res.BestScore),
			fmt.Sprintf("%d", res.Evaluations),
			fmt.Sprintf("%.1f%%", 100*res.BestScore/bestEff),
		)
	}
	fmt.Fprintln(out, t.String())
	fmt.Fprintf(out, "exhaustive sweep evaluates %d designs per benchmark\n", space.Size())
	return nil
}

func cmdHetero(e *core.Explorer, out io.Writer, simulate bool, csvDir string) error {
	res, err := heterostudy.Run(e, nil, heterostudy.Options{
		SimulateValidation: simulate,
		Seed:               e.Options().Seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, report.Table4(res))
	fmt.Fprintln(out, report.Figure8(res))
	fmt.Fprintln(out, report.Figure9(res, e.Benchmarks()))
	return writeCSV(csvDir, "figure9.csv", func(w io.Writer) error {
		return report.Figure9CSV(w, res, e.Benchmarks())
	})
}
