package eval

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ErrClosed is returned by batch evaluation after Close.
var ErrClosed = errors.New("eval: engine closed")

// Options configures an Engine. The zero value is usable: all cores, 16
// cache shards, caching enabled.
type Options struct {
	// Workers bounds batch parallelism; 0 means GOMAXPROCS.
	Workers int
	// Shards is the number of cache shards (rounded up to a power of
	// two); 0 means 16. More shards reduce lock contention when many
	// workers hit the cache simultaneously.
	Shards int
	// NoCache disables memoization and singleflight de-duplication.
	// Appropriate for backends whose evaluations are cheaper than a map
	// lookup (e.g. regression models in an exhaustive sweep, where the
	// caller caches whole sweeps instead).
	NoCache bool
	// Name labels the engine in spans, latency histograms and progress
	// lines ("sim", "model", ...); empty means "engine". Purely
	// observational — it never affects results.
	Name string
	// Retries bounds how many times a transiently-failing evaluation is
	// re-attempted (on top of the first attempt). 0 means
	// DefaultRetries; negative disables retry. Only errors that classify
	// themselves transient (and recovered panics) are retried —
	// permanent failures and context cancellation propagate immediately.
	Retries int
	// RetryBackoff is the base sleep before the first retry, doubling
	// per attempt and scaled by a deterministic per-request jitter in
	// [0.5, 1.5) so co-scheduled workers do not retry in lockstep; 0
	// means DefaultRetryBackoff. Backoff waits honor context
	// cancellation.
	RetryBackoff time.Duration
	// BatchTimeout bounds the wall time of each EvaluateBatch,
	// EvaluateIndexed and Sweep call; 0 means no deadline. On expiry the
	// batch cancels its workers and returns context.DeadlineExceeded.
	BatchTimeout time.Duration
	// Tile is the number of points handed to a worker per Sweep claim.
	// 0 sizes tiles automatically (enough tiles to load-balance, large
	// enough to amortize per-tile kernel setup). Callers whose index
	// space has natural contiguous blocks (the study space's depth
	// blocks) pass a tile that divides the block size, so no tile
	// straddles a block boundary.
	Tile int
}

// DefaultRetries is the transient-failure retry budget when
// Options.Retries is zero.
const DefaultRetries = 2

// DefaultRetryBackoff is the initial retry backoff when
// Options.RetryBackoff is zero.
const DefaultRetryBackoff = time.Millisecond

// EngineStats is a point-in-time snapshot of an engine's counters.
type EngineStats struct {
	// Evaluations counts backend Evaluate calls that actually ran.
	Evaluations int64
	// CacheHits counts requests served from the memoization cache,
	// including singleflight waiters that piggybacked on another
	// caller's in-flight evaluation.
	CacheHits int64
	// CacheMisses counts requests that had to run the backend.
	CacheMisses int64
	// SweptPoints counts design points evaluated through Sweep, the
	// uncached one-shot batch mode (they bypass the cache counters).
	SweptPoints int64
	// BatchCalls counts EvaluateBatch/EvaluateIndexed invocations (not
	// the requests inside them). The serving layer coalesces many
	// concurrent network requests into one engine batch, so the ratio of
	// coalesced requests to BatchCalls is the measured batching factor.
	BatchCalls int64
	// WarmHits counts simulator runs that replayed a memoized cache/BHT
	// outcome mask instead of building one; zero for backends without
	// an outcome memo.
	WarmHits int64
	// WarmMisses counts simulator runs that built their own outcome mask
	// (including every first run of a geometry); zero for backends
	// without an outcome memo.
	WarmMisses int64
	// PanicsRecovered counts backend panics converted into typed
	// TaskErrors by per-worker recovery.
	PanicsRecovered int64
	// Retries counts re-attempts of transiently-failing evaluations.
	Retries int64
	// GuardChecks counts fast-path results cross-checked against the
	// reference path by the backend's guardrail; zero for unguarded
	// backends.
	GuardChecks int64
	// GuardDivergences counts cross-checks that caught a fast-path
	// result differing from the reference — silent corruption that
	// tripped the guardrail.
	GuardDivergences int64
	// Degraded reports whether the backend's guardrail has tripped and
	// evaluations are being routed down the safe reference path. A
	// gauge, not a counter.
	Degraded bool
	// InFlight is the number of backend evaluations running right now.
	InFlight int64
	// Workers is the engine's configured batch parallelism.
	Workers int
}

// Sub returns the counter deltas s minus base. Gauges (Degraded,
// InFlight, Workers) are carried from s as-is, not differenced: they
// describe the present, not an interval. StatsEpoch is built on Sub;
// external consumers holding their own baseline snapshot (e.g. a
// serving layer attributing engine work to a traffic window) can use
// it directly.
func (s EngineStats) Sub(base EngineStats) EngineStats {
	d := s
	d.Evaluations -= base.Evaluations
	d.CacheHits -= base.CacheHits
	d.CacheMisses -= base.CacheMisses
	d.SweptPoints -= base.SweptPoints
	d.BatchCalls -= base.BatchCalls
	d.WarmHits -= base.WarmHits
	d.WarmMisses -= base.WarmMisses
	d.PanicsRecovered -= base.PanicsRecovered
	d.Retries -= base.Retries
	d.GuardChecks -= base.GuardChecks
	d.GuardDivergences -= base.GuardDivergences
	return d
}

// HitRate returns the fraction of cacheable requests served without a
// backend evaluation, or 0 before any traffic.
func (s EngineStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// entry is one memoized evaluation. The goroutine that creates the entry
// ("the owner") runs the backend and closes done; concurrent callers of
// the same key wait on done instead of re-running the backend
// (singleflight de-duplication).
type entry struct {
	done        chan struct{}
	bips, watts float64
	err         error
}

type shard struct {
	mu sync.Mutex
	m  map[Request]*entry
}

// Engine is a concurrent evaluation service over one backend. It
// provides bounded-parallelism batch evaluation with deterministic
// result ordering and context cancellation, an N-way sharded memoization
// cache with singleflight de-duplication, and lifetime counters.
//
// Batch calls spawn at most Workers goroutines for their own duration
// and always join them before returning, so an Engine holds no
// background goroutines: dropping one leaks nothing, and Close only
// fences further use.
type Engine struct {
	ev      Evaluator
	workers int
	nocache bool
	name    string
	retries int
	backoff time.Duration
	timeout time.Duration
	tile    int
	mask    uint64
	shards  []shard
	closed  atomic.Bool

	evals    atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	swept    atomic.Int64
	batches  atomic.Int64
	inflight atomic.Int64
	panics   atomic.Int64
	retried  atomic.Int64

	// epochMu guards the StatsEpoch baseline; see StatsEpoch.
	epochMu   sync.Mutex
	epochBase EngineStats

	// Cached observability instruments (resolved once at construction so
	// hot paths never touch the registry map). Histograms record only
	// while obs.Enabled(), so the default path costs one atomic load.
	invokeHist *obs.Histogram
	tileHist   *obs.Histogram
}

// NewEngine creates an engine over the backend.
func NewEngine(ev Evaluator, opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask.
	size := 1
	for size < n {
		size <<= 1
	}
	name := opts.Name
	if name == "" {
		name = "engine"
	}
	retries := opts.Retries
	if retries == 0 {
		retries = DefaultRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	e := &Engine{
		ev:         ev,
		workers:    workers,
		nocache:    opts.NoCache,
		name:       name,
		retries:    retries,
		backoff:    backoff,
		timeout:    opts.BatchTimeout,
		tile:       opts.Tile,
		mask:       uint64(size - 1),
		shards:     make([]shard, size),
		invokeHist: obs.DefaultRegistry.Histogram("eval." + name + ".invoke"),
		tileHist:   obs.DefaultRegistry.Histogram("eval." + name + ".tile"),
	}
	for i := range e.shards {
		e.shards[i].m = make(map[Request]*entry)
	}
	return e
}

// Workers returns the engine's batch parallelism.
func (e *Engine) Workers() int { return e.workers }

// warmStatser is probed on the backend so engines over the simulator
// surface its outcome memo counters without the engine depending on
// the sim package.
type warmStatser interface {
	WarmStats() (hits, misses int64)
}

// guardStatser is probed on the backend so engines over guarded
// backends (compiled models, the fast-path simulator) surface their
// guardrail counters.
type guardStatser interface {
	GuardStats() (checks, divergences int64, degraded bool)
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Evaluations:     e.evals.Load(),
		CacheHits:       e.hits.Load(),
		CacheMisses:     e.misses.Load(),
		SweptPoints:     e.swept.Load(),
		BatchCalls:      e.batches.Load(),
		PanicsRecovered: e.panics.Load(),
		Retries:         e.retried.Load(),
		InFlight:        e.inflight.Load(),
		Workers:         e.workers,
	}
	if ws, ok := e.ev.(warmStatser); ok {
		s.WarmHits, s.WarmMisses = ws.WarmStats()
	}
	if gs, ok := e.ev.(guardStatser); ok {
		s.GuardChecks, s.GuardDivergences, s.Degraded = gs.GuardStats()
	}
	return s
}

// StatsEpoch returns the counters accumulated since the previous
// StatsEpoch call (or since construction, for the first call) and
// starts a new epoch. Gauges (InFlight, Workers) are reported as-is,
// not differenced. Sequential studies in one process use epochs to
// attribute evaluations to the phase that ran them — a plain Stats
// snapshot taken per phase would double-count everything before it.
// Stats itself is unaffected and still reports lifetime totals.
func (e *Engine) StatsEpoch() EngineStats {
	e.epochMu.Lock()
	defer e.epochMu.Unlock()
	cur := e.Stats()
	d := cur.Sub(e.epochBase)
	e.epochBase = cur
	return d
}

// Close marks the engine closed; subsequent batch calls fail with
// ErrClosed. It does not interrupt batches already in flight (cancel
// their contexts for that) and is safe to call more than once. Engines
// hold no background goroutines, so Close is a fence, not a teardown.
func (e *Engine) Close() { e.closed.Store(true) }

// reqHash combines the request fields into one fnv1a hash without
// allocating; it keys both the cache shard choice and the retry jitter.
func reqHash(req Request) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	c := req.Config
	for _, v := range [...]int{
		c.DepthFO4, c.Width, c.LSQ, c.SQ, c.FUPerKind,
		c.GPR, c.FPR, c.SPR, c.ResvBR, c.ResvFX, c.ResvFP,
		c.IL1KB, c.DL1KB, c.L2KB, c.DL1Assoc,
	} {
		mix(uint64(v))
	}
	if c.InOrder {
		mix(1)
	}
	for i := 0; i < len(req.Bench); i++ {
		mix(uint64(req.Bench[i]))
	}
	return h
}

func (e *Engine) shardFor(req Request) *shard {
	return &e.shards[reqHash(req)&e.mask]
}

// splitmix64 finalizes a hash into an independent uniform draw (the
// same finalizer the fault package uses for its trigger draws).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryDelay is the sleep before re-attempting req after `attempt`
// failed attempts: the engine's base backoff doubled per attempt,
// scaled by a jitter factor in [0.5, 1.5) drawn deterministically from
// (request, attempt). Co-scheduled workers that fail together on a
// shared transient fault would otherwise retry in lockstep and collide
// again; hashing the request decorrelates their schedules while keeping
// every run bit-reproducible — the same request always jitters the same
// way.
func (e *Engine) retryDelay(req Request, attempt int) time.Duration {
	shift := uint(attempt - 1)
	if shift > 20 {
		shift = 20 // past ~1M× the base the cap is academic but overflow is not
	}
	base := e.backoff << shift
	draw := splitmix64(reqHash(req) ^ uint64(attempt)*0x9e3779b97f4a7c15)
	factor := 0.5 + float64(draw>>11)/float64(1<<53)
	return time.Duration(float64(base) * factor)
}

// invokeOnce runs the backend exactly once, maintaining the counters
// and converting a backend panic into a transient *PanicError instead
// of crashing the worker — determinism of the batch is preserved (the
// task fails typed; no result slot is corrupted) and the singleflight
// cache never sees the panic (failed entries are dropped, so nothing is
// poisoned).
func (e *Engine) invokeOnce(ctx context.Context, req Request) (res Result, err error) {
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			panicsRecoveredCtr.Add(1)
			err = &PanicError{Value: r}
		}
	}()
	if ferr := fault.HereCtx(ctx, "eval.invoke"); ferr != nil {
		e.evals.Add(1)
		return Result{}, ferr
	}
	bips, watts, err := e.ev.Evaluate(req.Config, req.Bench)
	e.evals.Add(1)
	if err != nil {
		return Result{}, err
	}
	return Result{BIPS: bips, Watts: watts}, nil
}

// invoke runs the backend with bounded retry: transient failures
// (self-classified errors, recovered panics, injected faults) are
// re-attempted up to the engine's retry budget with doubling,
// deterministically jittered backoff (retryDelay); permanent failures
// and context cancellation propagate immediately. Every failure leaves
// as a typed *TaskError carrying the request and attempt count.
func (e *Engine) invoke(ctx context.Context, req Request) (Result, error) {
	for attempt := 1; ; attempt++ {
		res, err := e.invokeOnce(ctx, req)
		if err == nil {
			return res, nil
		}
		var pe *PanicError
		panicked := errors.As(err, &pe)
		if attempt > e.retries || !retryable(err) || ctx.Err() != nil {
			return Result{}, &TaskError{Req: req, Attempts: attempt, Panicked: panicked, Err: err}
		}
		e.retried.Add(1)
		retriesCtr.Add(1)
		select {
		case <-ctx.Done():
			return Result{}, &TaskError{Req: req, Attempts: attempt, Panicked: panicked, Err: ctx.Err()}
		case <-time.After(e.retryDelay(req, attempt)):
		}
	}
}

// invokeTraced is invoke plus per-evaluation observability: a span
// (parented to the batch span carried in ctx) and a latency histogram
// sample. With tracing off it is exactly invoke after one atomic load.
func (e *Engine) invokeTraced(ctx context.Context, req Request) (Result, error) {
	if !obs.Enabled() {
		return e.invoke(ctx, req)
	}
	_, sp := obs.Start(ctx, "eval."+e.name+".invoke", obs.String("bench", req.Bench))
	start := time.Now()
	res, err := e.invoke(ctx, req)
	e.invokeHist.Observe(time.Since(start))
	sp.End()
	return res, err
}

// Evaluate serves one request on the caller's goroutine: cache and
// singleflight apply, but no worker dispatch, so single-point queries
// (interactive prediction, annealing steps) stay cheap and Evaluate
// remains safe to call from inside another evaluation.
func (e *Engine) Evaluate(ctx context.Context, req Request) (Result, error) {
	if e.nocache {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return e.invokeTraced(ctx, req)
	}
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		sh := e.shardFor(req)
		sh.mu.Lock()
		if ent, ok := sh.m[req]; ok {
			sh.mu.Unlock()
			select {
			case <-ent.done:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
			if ent.err == nil {
				e.hits.Add(1)
				return Result{BIPS: ent.bips, Watts: ent.watts}, nil
			}
			if errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded) {
				// The owner was cancelled before producing a value; the
				// key was removed, so retry (possibly becoming the owner).
				continue
			}
			return Result{}, ent.err
		}
		ent := &entry{done: make(chan struct{})}
		sh.m[req] = ent
		sh.mu.Unlock()
		e.misses.Add(1)

		res, err := e.invokeTraced(ctx, req)
		if err != nil {
			// Do not cache failures: drop the key so later callers retry,
			// then wake waiters with the error.
			sh.mu.Lock()
			delete(sh.m, req)
			sh.mu.Unlock()
			ent.err = err
			close(ent.done)
			return Result{}, err
		}
		ent.bips, ent.watts = res.BIPS, res.Watts
		close(ent.done)
		return res, nil
	}
}

// SweepFunc evaluates the half-open index tile [lo, hi) of a sweep,
// writing results directly into caller-owned storage. Implementations
// must be safe for concurrent calls on disjoint tiles.
type SweepFunc func(lo, hi int) error

// sweepShard is one worker's private progress counter, padded to its
// own cache line: workers bump their shard per tile without bouncing a
// shared line between cores, and readers (the progress ticker, the
// final stats merge) sum across shards. The padding covers the atomic
// plus the line the allocator may pack the next shard into.
type sweepShard struct {
	done atomic.Int64
	_    [56]byte
}

// Sweep partitions the index range [0, n) into contiguous tiles and
// invokes fn across the engine's workers — the batch mode for one-shot
// exhaustive sweeps. Unlike EvaluateBatch it touches neither the cache
// nor the singleflight table: a 262,500-point sweep would insert 262,500
// unique keys per benchmark, pure hash-and-store overhead and a memory
// blow-up for results the caller stores (and typically caches whole)
// anyway. No request or result slices are materialized; the kernel
// enumerates its tile in flat order and writes wherever it pleases.
//
// Tiles are fixed-size contiguous index blocks (Options.Tile, or an
// automatic size) claimed from a single atomic cursor, so fast workers
// take more of the range and no two workers ever share a tile. Per-tile
// progress lands in per-worker cache-line-padded shards — shared
// engine counters are touched exactly once, after the workers join —
// so the only cross-core traffic in a sweep's steady state is the
// handout cursor itself. The first error cancels the sweep and is
// returned; workers observe cancellation between tiles (a tile in
// progress runs to completion). All workers are joined before Sweep
// returns.
func (e *Engine) Sweep(ctx context.Context, n int, fn SweepFunc) error {
	if n <= 0 {
		return nil
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, e.timeout)
		defer cancelTimeout()
	}
	// One enablement check per sweep: tiles within a sweep are either all
	// traced or all bare, and the default path costs a single atomic load.
	traced := obs.Enabled()
	var span *obs.Span
	if traced {
		ctx, span = obs.Start(ctx, "eval."+e.name+".sweep",
			obs.Int("n", int64(n)), obs.Int("workers", int64(e.workers)))
		defer span.End()
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	tile := e.tile
	if tile <= 0 {
		// Tiles large enough to amortize per-tile setup (the kernel's
		// scratch buffers), small enough to load-balance across workers.
		tile = n / (e.workers * 8)
		if tile < 64 {
			tile = 64
		}
	}
	var cursor atomic.Int64

	workers := (n + tile - 1) / tile
	if workers > e.workers {
		workers = e.workers
	}
	shards := make([]sweepShard, workers)
	sumDone := func() int64 {
		var total int64
		for i := range shards {
			total += shards[i].done.Load()
		}
		return total
	}
	stopProgress := obs.StartProgress("eval."+e.name+".sweep", int64(n), sumDone)
	defer stopProgress()

	// Hoisted out of the tile loop: the name concat and the parent span
	// are per-sweep, and tile spans hang off the sweep span directly
	// (Span.Child) rather than re-deriving the parent from the context —
	// context machinery per tile was a measurable slice of the sweep's
	// observability overhead.
	tileName := "eval." + e.name + ".tile"

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(shard *sweepShard) {
			defer wg.Done()
			for {
				if bctx.Err() != nil {
					return
				}
				lo := int(cursor.Add(int64(tile))) - tile
				if lo >= n {
					return
				}
				hi := lo + tile
				if hi > n {
					hi = n
				}
				var tileSpan *obs.Span
				if traced {
					tileSpan = span.Child(tileName,
						obs.Int("lo", int64(lo)), obs.Int("hi", int64(hi)))
				}
				err := fn(lo, hi)
				if traced {
					tileSpan.EndObserve(e.tileHist)
				}
				if err != nil {
					fail(err)
					return
				}
				shard.done.Add(int64(hi - lo))
			}
		}(&shards[w])
	}
	wg.Wait()
	// Merge the private shards into the engine's lifetime counter once:
	// SweptPoints accounts completed tiles even when the sweep failed or
	// was cancelled partway.
	e.swept.Add(sumDone())

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// EvaluateBatch evaluates all requests with bounded parallelism and
// returns results in request order regardless of worker count or
// completion order. The first evaluation error cancels outstanding work
// and is returned promptly; on cancellation every worker goroutine exits
// before EvaluateBatch returns (evaluations already inside the backend
// run to completion — the simulator is not interruptible mid-trace).
func (e *Engine) EvaluateBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	return e.EvaluateIndexed(ctx, len(reqs), func(i int) Request { return reqs[i] })
}

// EvaluateIndexed is EvaluateBatch without a materialized request slice:
// request i is produced on demand by req(i). Large sweeps (hundreds of
// thousands of generated configurations) use this to avoid building a
// multi-megabyte request slice. req must be safe for concurrent calls
// with distinct indices.
func (e *Engine) EvaluateIndexed(ctx context.Context, n int, req func(i int) Request) ([]Result, error) {
	if n == 0 {
		return nil, nil
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.batches.Add(1)
	if e.timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, e.timeout)
		defer cancelTimeout()
	}
	if obs.Enabled() {
		var span *obs.Span
		ctx, span = obs.Start(ctx, "eval."+e.name+".batch",
			obs.Int("n", int64(n)), obs.Int("workers", int64(e.workers)))
		defer span.End()
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]Result, n)
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	// Workers claim contiguous index chunks from a shared cursor: cheap
	// evaluations (model predictions) amortize the synchronization over
	// the chunk, while expensive ones (simulations) get chunk sizes small
	// enough to load-balance.
	chunk := n / (e.workers * 32)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 512 {
		chunk = 512
	}
	var cursor atomic.Int64
	var done atomic.Int64
	stopProgress := obs.StartProgress("eval."+e.name+".batch", int64(n), done.Load)
	defer stopProgress()

	workers := e.workers
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if bctx.Err() != nil {
					return
				}
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if bctx.Err() != nil {
						return
					}
					res, err := e.Evaluate(bctx, req(i))
					if err != nil {
						fail(err)
						return
					}
					out[i] = res
				}
				// Progress is tracked per chunk, not per item: one atomic
				// add amortized over the whole chunk.
				done.Add(int64(hi - lo))
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
