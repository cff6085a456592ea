package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// View parameters the simulate-mix readers choose from: a small fixed
// set, so after warmup every read is a materialized-view hit.
var (
	sweepTops     = []int{1, 10, 100}
	paretoTargets = []int{10, 40}
)

// Sampling rates of the correctness check: one request in N of each
// class keeps its response for checking after the run.
const (
	checkEveryPredict  = 32
	checkEverySimulate = 32
	checkEveryView     = 8
)

func studySize() int { return arch.ExplorationSpace().Size() }

func runPredict(cfg config) (*outcome, error) {
	return runServe(cfg, serveWorkload{name: "predict", stream: predictStream, verify: verifyPoints(predictRef)})
}

func runSimulateMix(cfg config) (*outcome, error) {
	return runServe(cfg, serveWorkload{name: "simulate-mix", stream: mixStream, prime: primeViews, verify: verifyMix})
}

// predictStream draws one-point predict requests at uniform indices over
// the study space, for a uniformly chosen benchmark.
func predictStream(seed uint64, c, _ int) func() *request {
	rng := pcg(seed, uint64(100+c))
	size := studySize()
	return func() *request {
		r := &request{class: classPredict, path: "/v1/predict", bench: serveBenches[rng.IntN(len(serveBenches))]}
		r.indices = []int{rng.IntN(size)}
		r.check = rng.IntN(checkEveryPredict) == 0
		r.body = pointBody(r.bench, r.indices)
		return r
	}
}

// mixStream draws a 50/50 mix of simulate requests and view reads.
// Simulate indices come from one seeded permutation of the study space;
// client c takes every clients-th block of simPoints from it, so no
// design point is ever requested twice and each misses the engine cache.
func mixStream(seed uint64, c, clients int) func() *request {
	perm := pcg(seed, 1).Perm(studySize())
	rng := pcg(seed, uint64(200+c))
	block := 0
	return func() *request {
		bench := serveBenches[rng.IntN(len(serveBenches))]
		if rng.IntN(2) == 0 {
			lo := ((block*clients + c) * simPoints) % (len(perm) - simPoints)
			block++
			r := &request{class: classSimulate, path: "/v1/simulate", bench: bench}
			r.indices = append([]int(nil), perm[lo:lo+simPoints]...)
			r.check = rng.IntN(checkEverySimulate) == 0
			r.body = pointBody(bench, r.indices)
			return r
		}
		r := &request{class: classView, bench: bench}
		if rng.IntN(2) == 0 {
			r.path, r.param = "/v1/sweep", sweepTops[rng.IntN(len(sweepTops))]
			r.body, _ = json.Marshal(serve.SweepRequest{Bench: bench, Top: r.param}) //nolint:errcheck // plain struct
		} else {
			r.path, r.param = "/v1/pareto", paretoTargets[rng.IntN(len(paretoTargets))]
			r.body, _ = json.Marshal(serve.ParetoRequest{Bench: bench, Targets: r.param}) //nolint:errcheck // plain struct
		}
		r.check = rng.IntN(checkEveryView) == 0
		return r
	}
}

// primeViews reads every view once, so the measured reads are hits.
func primeViews(d *daemon) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	post := func(path string, v any) error {
		b, _ := json.Marshal(v) //nolint:errcheck // plain struct
		resp, err := hc.Post(d.url+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("priming %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	for _, b := range serveBenches {
		for _, top := range sweepTops {
			if err := post("/v1/sweep", serve.SweepRequest{Bench: b, Top: top}); err != nil {
				return err
			}
		}
		for _, t := range paretoTargets {
			if err := post("/v1/pareto", serve.ParetoRequest{Bench: b, Targets: t}); err != nil {
				return err
			}
		}
	}
	return nil
}

// pointRef answers one design point the reference way.
type pointRef func(bench string, cfg arch.Config) (bips, watts float64, err error)

// predictRef evaluates the interpreted regression models.
func predictRef(ref *core.Explorer) pointRef {
	return func(bench string, cfg arch.Config) (float64, float64, error) {
		perf, pow, err := ref.Models(bench)
		if err != nil {
			return 0, 0, err
		}
		get := arch.PredictorGetter(cfg)
		return perf.Predict(get), pow.Predict(get), nil
	}
}

// simulateRef runs the seed simulator on a freshly synthesized trace.
func simulateRef() pointRef {
	traces := map[string]*trace.Trace{}
	return func(bench string, cfg arch.Config) (float64, float64, error) {
		tr, ok := traces[bench]
		if !ok {
			var err error
			if tr, err = trace.ForBenchmark(bench, traceLen); err != nil {
				return 0, 0, err
			}
			traces[bench] = tr
		}
		res, err := sim.Run(cfg, tr)
		if err != nil {
			return 0, 0, err
		}
		return res.BIPS, power.Watts(res), nil
	}
}

// verifyPoints checks predict (or simulate) responses bit for bit
// against the reference evaluation of every requested point.
func verifyPoints(mk func(*core.Explorer) pointRef) func(*core.Explorer, []sample) ([]bool, error) {
	return func(ref *core.Explorer, samples []sample) ([]bool, error) {
		eval := mk(ref)
		out := make([]bool, len(samples))
		for i, s := range samples {
			ok, err := checkPoints(ref, eval, s)
			if err != nil {
				return nil, err
			}
			out[i] = ok
		}
		return out, nil
	}
}

func checkPoints(ref *core.Explorer, eval pointRef, s sample) (bool, error) {
	var resp serve.PointResponse
	if json.Unmarshal(s.payload, &resp) != nil || resp.Bench != s.req.bench || len(resp.Results) != len(s.req.indices) {
		return false, nil
	}
	space := ref.StudySpace
	for j, idx := range s.req.indices {
		b, w, err := eval(s.req.bench, space.Config(space.PointAt(idx)))
		if err != nil {
			return false, err
		}
		want := serve.PointResult{BIPS: b, Watts: w}
		if b > 0 && w > 0 {
			want.BIPS3W = metrics.BIPS3W(b, w)
		}
		if !sameBits(resp.Results[j], want) {
			return false, nil
		}
	}
	return true, nil
}

func sameBits(a, b serve.PointResult) bool {
	return math.Float64bits(a.BIPS) == math.Float64bits(b.BIPS) &&
		math.Float64bits(a.Watts) == math.Float64bits(b.Watts) &&
		math.Float64bits(a.BIPS3W) == math.Float64bits(b.BIPS3W)
}

// verifyMix checks simulate results against the seed simulator and view
// bodies against views recomputed from an in-process sweep.
func verifyMix(ref *core.Explorer, samples []sample) ([]bool, error) {
	simEval := simulateRef()
	views := newViewRef(ref)
	out := make([]bool, len(samples))
	for i, s := range samples {
		var err error
		if s.req.class == classSimulate {
			out[i], err = checkPoints(ref, simEval, s)
		} else {
			out[i], err = views.check(s)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// viewRef recomputes sweep and pareto views from ExhaustivePredict, once
// per distinct request.
type viewRef struct {
	ref   *core.Explorer
	preds map[string][]core.Prediction
	want  map[viewKey]any
}

type viewKey struct {
	path, bench string
	param       int
}

func newViewRef(ref *core.Explorer) *viewRef {
	return &viewRef{ref: ref, preds: map[string][]core.Prediction{}, want: map[viewKey]any{}}
}

func (v *viewRef) check(s sample) (bool, error) {
	k := viewKey{s.req.path, s.req.bench, s.req.param}
	want, ok := v.want[k]
	if !ok {
		preds, ok := v.preds[k.bench]
		if !ok {
			var err error
			if preds, err = v.ref.ExhaustivePredict(k.bench); err != nil {
				return false, err
			}
			v.preds[k.bench] = preds
		}
		var err error
		if k.path == "/v1/sweep" {
			want, err = v.sweepResponse(k.bench, k.param, preds)
		} else {
			want, err = v.paretoResponse(k.bench, k.param, preds)
		}
		if err != nil {
			return false, err
		}
		v.want[k] = want
	}
	got := reflect.New(reflect.TypeOf(want).Elem()).Interface()
	if json.Unmarshal(s.payload, got) != nil {
		return false, nil
	}
	return reflect.DeepEqual(got, want), nil
}

// sweepResponse ranks every physical design by bips³/w with a full sort
// (ties to the lower index) and keeps the top designs. Its best design
// must be the one core.BestEfficiency finds.
func (v *viewRef) sweepResponse(bench string, top int, preds []core.Prediction) (*serve.SweepResponse, error) {
	type ranked struct {
		p   core.Prediction
		eff float64
	}
	var phys []ranked
	for _, p := range preds {
		if p.BIPS > 0 && p.Watts > 0 {
			phys = append(phys, ranked{p, metrics.BIPS3W(p.BIPS, p.Watts)})
		}
	}
	sort.SliceStable(phys, func(a, b int) bool { return phys[a].eff > phys[b].eff })
	if top < len(phys) {
		phys = phys[:top]
	}
	if best, _ := core.BestEfficiency(preds); len(phys) == 0 || phys[0].p.Index != best {
		return nil, fmt.Errorf("reference ranking for %s disagrees with core.BestEfficiency", bench)
	}
	space := v.ref.StudySpace
	resp := &serve.SweepResponse{Bench: bench, Generation: 1, Points: len(preds)}
	for _, r := range phys {
		resp.Best = append(resp.Best, serve.SweepDesign{
			Index: r.p.Index, Config: space.Config(space.PointAt(r.p.Index)),
			BIPS: r.p.BIPS, Watts: r.p.Watts, BIPS3W: r.eff,
		})
	}
	return resp, nil
}

// paretoResponse builds the discretized delay-power frontier of the
// physical designs.
func (v *viewRef) paretoResponse(bench string, targets int, preds []core.Prediction) (*serve.ParetoResponse, error) {
	var pts []pareto.Point
	for _, p := range preds {
		if p.BIPS > 0 && p.Watts > 0 {
			pts = append(pts, pareto.Point{ID: p.Index, Delay: metrics.Delay(p.BIPS), Power: p.Watts})
		}
	}
	front, err := pareto.DiscretizedFrontier(pts, targets)
	if err != nil {
		return nil, err
	}
	space := v.ref.StudySpace
	resp := &serve.ParetoResponse{Bench: bench, Generation: 1, Targets: targets}
	for _, fp := range front {
		resp.Frontier = append(resp.Frontier, serve.ParetoDesign{
			Index: fp.ID, Config: space.Config(space.PointAt(fp.ID)), DelayS: fp.Delay, Watts: fp.Power,
		})
	}
	return resp, nil
}
