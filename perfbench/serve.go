package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serve workloads run the daemon's handler on a loopback listener
// and drive it with closed-loop clients in the same process: each client
// sends its next request only after the previous one has answered.

// serveBenches are the benchmarks the daemon's models cover.
var serveBenches = []string{"gzip", "mcf"}

const (
	// warmup is driven, checked and counted, but not measured.
	warmup = time.Second
	// serveSetupReps is how many daemons a run starts; setup_s is the
	// median. A daemon starts in about a millisecond, so many starts
	// keep the median steady on a noisy host.
	serveSetupReps = 31
	// simPoints is the number of design points per simulate request.
	simPoints = 8
	// healthzTimeout bounds how long set-up waits for the daemon.
	healthzTimeout = 30 * time.Second
)

// Request classes.
const (
	classPredict = iota
	classSimulate
	classView
)

var classNames = []string{"predict", "simulate", "view"}

func serveOptions() core.Options {
	o := reportOptions()
	o.Benchmarks = serveBenches
	return o
}

// loadExplorer builds an explorer from the saved model file, as the
// daemon's loader does.
func loadExplorer(path string) (*core.Explorer, error) {
	e, err := core.New(serveOptions())
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := e.LoadModels(f); err != nil {
		return nil, err
	}
	return e, nil
}

// trainModels trains the gzip and mcf models and saves them to path
// with the code under test.
func trainModels(path string) error {
	e, err := core.New(serveOptions())
	if err != nil {
		return err
	}
	if err := e.TrainContext(context.Background()); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.SaveModels(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeModels writes the model file, untimed, in a child process of this
// binary, so training's heap never counts toward the serving process's
// peak RSS. It waits for the child to exit.
func writeModels(dir string, stderr io.Writer) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "models.json")
	cmd := exec.Command(exe, "--write-models", path)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("training models: %w", err)
	}
	return path, nil
}

// handlerLog records, per client, how long the handler spent on each of
// its requests, indexed by the client's request sequence number.
type handlerLog struct {
	mu   sync.Mutex
	durs []int64
}

func (l *handlerLog) record(seq int, d time.Duration) {
	l.mu.Lock()
	for len(l.durs) <= seq {
		l.durs = append(l.durs, -1)
	}
	l.durs[seq] = int64(d)
	l.mu.Unlock()
}

func (l *handlerLog) get(seq int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < len(l.durs) {
		return l.durs[seq]
	}
	return -1
}

// timedHandler wraps the daemon's handler to measure time inside it, and
// opens the benchmark's span around each request when tracing is on.
type timedHandler struct {
	h    http.Handler
	logs []*handlerLog
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, sp := obs.Start(r.Context(), "bench.handler")
	if sp != nil {
		r = r.WithContext(ctx)
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	sp.End()
	c, err1 := strconv.Atoi(r.Header.Get("X-Bench-Client"))
	seq, err2 := strconv.Atoi(r.Header.Get("X-Bench-Seq"))
	if err1 == nil && err2 == nil && c >= 0 && c < len(t.logs) {
		t.logs[c].record(seq, d)
	}
}

// daemon is one running server on a loopback listener.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	handler *timedHandler
	served  chan error
}

// startDaemon loads the models into a new server, serves its handler on
// a loopback port and waits until /v1/healthz answers ok. The returned
// duration is the set-up time.
func startDaemon(models string, clients int) (*daemon, time.Duration, error) {
	start := time.Now()
	srv, err := serve.New(func() (*core.Explorer, error) { return loadExplorer(models) }, serve.Options{})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	th := &timedHandler{h: srv.Handler()}
	for i := 0; i < clients; i++ {
		th.logs = append(th.logs, &handlerLog{})
	}
	d := &daemon{
		srv:     srv,
		hs:      &http.Server{Handler: th},
		url:     "http://" + ln.Addr().String(),
		handler: th,
		served:  make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	for {
		if healthy(hc, d.url) {
			return d, time.Since(start), nil
		}
		if time.Since(start) > healthzTimeout {
			d.stop() //nolint:errcheck // already failing
			return nil, 0, errors.New("daemon never answered /v1/healthz ok")
		}
		time.Sleep(time.Millisecond)
	}
}

func healthy(hc *http.Client, url string) bool {
	resp, err := hc.Get(url + "/v1/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h serve.HealthzResponse
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "ok"
}

// stop shuts the listener and the server down and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if e := d.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	return err
}

// request is one generated request.
type request struct {
	class   int
	path    string
	bench   string
	indices []int // predict and simulate
	param   int   // sweep top or pareto targets
	check   bool  // sampled for the correctness check
	body    []byte
}

// sample is one completed request as the client saw it.
type sample struct {
	req     *request
	seq     int
	latNS   int64
	end     time.Duration // completion, from the start of its window
	status  int
	err     error
	payload []byte // kept only for requests sampled for checking
}

// client is one closed-loop load generator with its own connection and
// its own seeded request stream.
type client struct {
	id   int
	url  string
	hc   *http.Client
	tr   *http.Transport
	next func() *request
	seq  int
}

func newClient(id int, url string, next func() *request) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{id: id, url: url, tr: tr, hc: &http.Client{Transport: tr}, next: next}
}

func (c *client) do() sample {
	r := c.next()
	s := sample{req: r, seq: c.seq}
	c.seq++
	hr, err := http.NewRequest(http.MethodPost, c.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Bench-Client", strconv.Itoa(c.id))
	hr.Header.Set("X-Bench-Seq", strconv.Itoa(s.seq))
	start := time.Now()
	resp, err := c.hc.Do(hr)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.latNS = int64(time.Since(start))
	s.err = err
	if r.check {
		s.payload = body
	}
	return s
}

// drive runs every client closed-loop for d and returns each client's
// samples and the window's wall time.
func drive(clients []*client, d time.Duration) ([][]sample, time.Duration) {
	out := make([][]sample, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for i, c := range clients {
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := c.do()
				s.end = time.Since(start)
				out[i] = append(out[i], s)
			}
		}(i, c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// serveWorkload describes one traffic mix.
type serveWorkload struct {
	name string
	// stream returns client c's seeded request generator.
	stream func(seed uint64, c, clients int) func() *request
	// prime sends requests that must precede the warmup traffic.
	prime func(d *daemon) error
	// verify checks the sampled responses against in-process references
	// and returns, per sample, whether it was right.
	verify func(ref *core.Explorer, samples []sample) ([]bool, error)
}

// window is one measured stretch of traffic.
type window struct {
	samples    [][]sample
	wall       time.Duration
	before     map[string]int64
	after      map[string]int64
	mem        memSample
	latByClass map[int][]float64
	// inOrder holds the latencies (ms) of answered requests in completion
	// order, ends their completion times.
	inOrder []float64
	ends    []time.Duration
	// peakRSS is the process's RSS high-water mark at the window's end.
	peakRSS float64
	// cpu is the CPU time the whole process used during the window.
	cpu time.Duration
}

func (w *window) all() []sample {
	var out []sample
	for _, s := range w.samples {
		out = append(out, s...)
	}
	return out
}

// p50 is the median request latency in ms. A mix of request classes has
// a bimodal distribution whose overall median sits in the gap between
// the classes and jumps from run to run, so with several classes it is
// the geometric mean of the class medians.
func (w *window) p50() float64 {
	if len(w.latByClass) == 1 {
		for _, xs := range w.latByClass {
			return median(xs)
		}
	}
	logSum, n := 0.0, 0
	for _, xs := range w.latByClass {
		logSum += math.Log(median(xs))
		n++
	}
	return math.Exp(logSum / float64(n))
}

func measure(clients []*client, d time.Duration, traced bool) *window {
	// Start from a collected heap, so garbage from set-up and warmup is
	// not billed to the window.
	runtime.GC()
	obs.Enable(traced)
	defer obs.Enable(false)
	w := &window{before: counters(), latByClass: map[int][]float64{}}
	root := obs.Begin("bench.window")
	m0, cpu0 := readMem(), cpuTime()
	w.samples, w.wall = drive(clients, d)
	w.cpu = cpuTime() - cpu0
	w.mem = memSample{}.add(m0, readMem())
	root.End()
	w.after = counters()
	w.peakRSS = peakRSSMB()
	var answered []sample
	for _, s := range w.all() {
		if s.err == nil && s.status == http.StatusOK {
			answered = append(answered, s)
			w.latByClass[s.req.class] = append(w.latByClass[s.req.class], float64(s.latNS)/1e6)
		}
	}
	sort.Slice(answered, func(a, b int) bool { return answered[a].end < answered[b].end })
	for _, s := range answered {
		w.inOrder = append(w.inOrder, float64(s.latNS)/1e6)
		w.ends = append(w.ends, s.end)
	}
	return w
}

func runServe(cfg config, wl serveWorkload) (*outcome, error) {
	out := newOutcome()
	models, err := writeModels(cfg.workDir, cfg.log)
	if err != nil {
		return nil, err
	}
	var setupCPU, setupWall []float64
	var d *daemon
	for i := 0; i < serveSetupReps; i++ {
		cpu0 := cpuTime()
		dd, took, err := startDaemon(models, cfg.clients)
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, (cpuTime() - cpu0).Seconds())
		setupWall = append(setupWall, took.Seconds())
		if i == serveSetupReps-1 {
			d = dd
			break
		}
		if err := dd.stop(); err != nil {
			return nil, fmt.Errorf("stopping set-up daemon: %w", err)
		}
	}
	var clients []*client
	for c := 0; c < cfg.clients; c++ {
		clients = append(clients, newClient(c, d.url, wl.stream(cfg.seed, c, cfg.clients)))
	}
	defer func() {
		for _, c := range clients {
			c.tr.CloseIdleConnections()
		}
		if err := d.stop(); err != nil {
			fmt.Fprintf(cfg.log, "perfbench: stopping daemon: %v\n", err)
		}
	}()
	viewBuildsBefore := counters()["serve.view.builds"]

	// Warmup fills the daemon's caches. A traced run traces it too, so
	// the view builds it triggers are recorded.
	obs.Enable(cfg.trace)
	if wl.prime != nil {
		if err := wl.prime(d); err != nil {
			return nil, err
		}
	}
	warm, _ := drive(clients, warmup)
	obs.Enable(false)

	var plain, traced *window
	if cfg.trace {
		plain = measure(clients, cfg.seconds/2, false)
		traced = measure(clients, cfg.seconds-cfg.seconds/2, true)
	} else {
		plain = measure(clients, cfg.seconds, false)
	}

	// Correctness, outside every timed window.
	ref, err := loadExplorer(models)
	if err != nil {
		return nil, err
	}
	windows := [][][]sample{warm, plain.samples}
	if traced != nil {
		windows = append(windows, traced.samples)
	}
	var checked []sample
	for _, win := range windows {
		for _, cs := range win {
			for _, s := range cs {
				if s.req.check && s.err == nil && s.status == http.StatusOK {
					checked = append(checked, s)
				}
			}
		}
	}
	right, err := wl.verify(ref, checked)
	if err != nil {
		return nil, err
	}
	wrong := map[*request]bool{}
	for i, ok := range right {
		if !ok {
			wrong[checked[i].req] = true
		}
	}
	for _, win := range windows {
		for _, cs := range win {
			for _, s := range cs {
				switch {
				case s.err != nil:
					out.problem("%s request failed: %v", classNames[s.req.class], s.err)
				case s.status != http.StatusOK:
					out.problem("%s request answered %d", classNames[s.req.class], s.status)
				case wrong[s.req]:
					out.problem("%s response for %s %v differs from the reference", classNames[s.req.class], s.req.bench, s.req.indices)
				default:
					out.add(true)
					continue
				}
				out.add(false)
			}
		}
	}
	if len(out.problems) > 10 {
		out.problems = append(out.problems[:10], fmt.Sprintf("... and %d more", len(out.problems)-10))
	}
	if d, _ := delta(plain.before, counters(), "eval.guard.divergences"); d != 0 {
		out.problem("eval.guard.divergences rose by %d", d)
	}

	tail, tailAt := chunkedTail(plain.inOrder, 99)
	out.runs = int64(len(plain.inOrder))
	m := out.endToEnd
	m.set("setup_s", "s", median(setupCPU))
	m.set("cpu_ms_per_op", "ms", ratio(plain.cpu.Seconds()*1e3, float64(len(plain.inOrder))))
	m.set("peak_rss_mb", "MB", plain.peakRSS)
	w := out.wall
	w.set("setup_wall_s", "s", median(setupWall))
	w.set("ops_per_s", "1/s", medianRate(plain.ends, plain.wall, time.Second))
	w.set("p50_ms", "ms", plain.p50())
	w.set("p99_ms", "ms", tail)
	if len(plain.latByClass) > 1 {
		w.set("sim_p50_ms", "ms", median(plain.latByClass[classSimulate]))
		w.set("view_p50_ms", "ms", median(plain.latByClass[classView]))
	}
	out.detail["p99_at"] = tailAt
	out.detail["latency_ms"] = classSummaries(plain)
	out.detail["checked_responses"] = len(checked)
	out.detail["traffic"] = traffic(plain)
	if !cfg.trace {
		return out, nil
	}

	serveLayers(out, wl.name, d, plain, traced, viewBuildsBefore)
	return out, nil
}

// serveLayers sets the per-layer metrics of a traced serve run from the
// traced window's spans and counter deltas. The runtime figures come
// from the untraced window, plain.
func serveLayers(out *outcome, workload string, d *daemon, plain, traced *window, viewBuildsBefore int64) {
	pl := out.perLayer
	spans := spansOf(obs.DefaultTracer.Snapshot())
	wins := named(spans, "bench.window")
	if len(wins) != 1 {
		out.problem("found %d traced windows, want 1", len(wins))
		return
	}
	tw := wins[0]
	in := within(spans, tw.lo, tw.hi)
	handlerLayers(pl, d, traced)
	switch workload {
	case "predict":
		batches, okB := delta(traced.before, traced.after, "serve.predict.batches")
		joined, okJ := delta(traced.before, traced.after, "serve.predict.coalesced")
		if okB && okJ {
			pl.setLayer("serve.predict.batch_points", ratio(float64(joined), float64(batches)))
			if hp, ok := pl["serve.handler_p50_ms"]; ok {
				share := ratio(float64(sumDur(named(in, "eval.model.batch")))/1e6, float64(joined))
				pl.setLayer("serve.predict.nonengine_ms", hp.Value-share)
			}
		}
		pl.fillUnexercised(serveLayerNames, predictLayerNames)
	case "simulate-mix":
		batches, okB := delta(traced.before, traced.after, "serve.simulate.batches")
		joined, okJ := delta(traced.before, traced.after, "serve.simulate.coalesced")
		if okB && okJ {
			pl.setLayer("serve.simulate.batch_points", ratio(float64(joined*simPoints), float64(batches)))
		}
		hits, okH := delta(traced.before, traced.after, "serve.view.hits")
		misses, _ := delta(traced.before, traced.after, "serve.view.misses")
		if okH {
			pl.setLayer("serve.view.hit_ratio", ratio(float64(hits), float64(hits+misses)))
		}
		if builds, ok := counters()["serve.view.builds"]; ok {
			pl.setLayer("serve.view.builds", float64(builds-viewBuildsBefore))
			pl.setLayer("serve.view.build_ms", float64(sumDur(named(spans, "serve.view.build")))/1e6)
		}
		r := map[string]float64{}
		simLayers(r, in, traced.before, traced.after)
		for k, v := range r {
			pl.setLayer(k, v)
		}
		pl.fillUnexercised(serveLayerNames, mixLayerNames, simLayerNames)
	}
	setRuntime(pl, plain.mem, int64(len(plain.inOrder)))
	pl.setLayer("trace_overhead_pct", 100*(traced.p50()/plain.p50()-1))
	handlers := named(in, "bench.handler")
	var inner []span // every span but the window's own
	for _, s := range spans {
		if s.name != "bench.window" {
			inner = append(inner, s)
		}
	}
	parts := attribute(inner, handlers)
	pl.setLayer("attrib.unaccounted_pct", unaccountedPct(parts))
	self := map[string]float64{}
	for layer, t := range parts {
		self[layer] = ratio(float64(t)/1e6, float64(len(handlers)))
	}
	// Per request, the layers' self times add up to the handler time.
	out.detail["self_ms_per_request_by_layer"] = self
}

// handlerLayers sets the handler-time figures of a traced window: the
// median time inside the handler, and the median of each request's
// client latency minus its handler time.
func handlerLayers(pl metricSet, d *daemon, w *window) {
	var inside, overhead []float64
	for c, cs := range w.samples {
		for _, s := range cs {
			h := d.handler.logs[c].get(s.seq)
			if h < 0 || s.err != nil || s.status != http.StatusOK {
				continue
			}
			inside = append(inside, float64(h)/1e6)
			overhead = append(overhead, float64(s.latNS-h)/1e6)
		}
	}
	if len(inside) > 0 {
		pl.setLayer("serve.handler_p50_ms", median(inside))
		pl.setLayer("client.overhead_p50_ms", median(overhead))
	}
}

func classSummaries(w *window) map[string]latencySummary {
	out := map[string]latencySummary{}
	for c, xs := range w.latByClass {
		out[classNames[c]] = summarize(xs)
	}
	return out
}

// traffic describes what a window actually sent, so the mix is checked
// rather than assumed.
func traffic(w *window) map[string]any {
	count := map[string]int{}
	points := map[string]int{}
	distinct := map[[2]int]bool{}
	for _, s := range w.all() {
		name := classNames[s.req.class]
		count[name]++
		points[name] += len(s.req.indices)
		for _, idx := range s.req.indices {
			b := 0
			if s.req.bench == serveBenches[1] {
				b = 1
			}
			distinct[[2]int{b, idx}] = true
		}
	}
	perReq := map[string]float64{}
	for name, n := range count {
		perReq[name] = ratio(float64(points[name]), float64(n))
	}
	t := map[string]any{
		"requests":           count,
		"points_per_request": perReq,
		"distinct_points":    len(distinct),
		"total_points":       points,
	}
	if n := points["simulate"]; n > 0 {
		// The engine answers a point from its cache unless it simulates
		// it; every simulation bumps sim.runs, and so does every
		// guardrail reference run, counted in eval.guard.checks.
		runs, _ := delta(w.before, w.after, "sim.runs")
		checks, _ := delta(w.before, w.after, "eval.guard.checks")
		t["eval.sim.cache_hit_ratio"] = 1 - float64(runs-checks)/float64(n)
	}
	return t
}

// pcg returns a seeded generator for one stream of one run.
func pcg(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func pointBody(bench string, indices []int) []byte {
	b, _ := json.Marshal(serve.PointRequest{Bench: bench, Indices: indices}) //nolint:errcheck // plain struct
	return b
}
