package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultWarmBudget bounds the total heap the outcome-mask memo may
// hold. A mask costs one byte per timed instruction, and a full training
// sweep touches at most il1×dl1×l2 = 125 geometry combinations per
// benchmark, so the default comfortably covers the paper's workloads;
// overflowing runs simply warm and record their own mask.
const DefaultWarmBudget int64 = 256 << 20

// warmKey identifies one memoizable outcome stream. Warmup and the timed
// region's cache and predictor traffic touch only the caches and the
// branch predictor, so their outcomes depend on nothing but the trace
// and the cache geometries — never on latencies, width, depth, pools or
// queues (the BHT geometry is a package constant). Keys hold the trace
// pointer: traces are immutable and memoized per (benchmark, length), so
// pointer identity is exactly trace identity.
type warmKey struct {
	tr       *trace.Trace
	il1KB    int
	dl1KB    int
	dl1Assoc int
	l2KB     int
}

// warmEntry is one key's memo slot: the once walks the warmup and
// records the key's outcome mask (one byte per timed instruction, see
// the m* bits in kernel.go) exactly once however many goroutines race on
// the key. mask is written only inside the once, so every caller that
// returns from the once sees it; it stays nil when the memo budget is
// exhausted (or the walk failed), in which case later runs warm and
// record their own.
type warmEntry struct {
	once sync.Once
	mask []byte
}

type warmMap map[warmKey]*warmEntry

// Runner is the simulator's steady-state fast path: a pool of run
// scratch plus a memo of recorded cache and branch-predictor outcomes
// keyed by (trace, cache geometry). The first run of each key walks the
// full warmup and records the timed region's outcomes; every run of the
// key, the first included, then replays them through the timing-only
// kernel without touching the hierarchy. Results are bit-identical to
// Run's. Safe for concurrent use.
type Runner struct {
	pool   sync.Pool
	warm   atomic.Pointer[warmMap]
	mu     sync.Mutex // serializes copy-on-write inserts into warm
	budget int64
	used   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// NewRunner returns a fast-path runner with the default memo budget.
func NewRunner() *Runner {
	r := &Runner{budget: DefaultWarmBudget}
	r.pool.New = func() any { return new(Scratch) }
	m := make(warmMap)
	r.warm.Store(&m)
	return r
}

// SetWarmBudget caps the memo's total outcome-mask bytes. Runs whose
// mask would exceed the cap warm and record their own and nothing is
// evicted; results are unaffected either way. Call before the runner is
// shared.
func (r *Runner) SetWarmBudget(bytes int64) { r.budget = bytes }

// WarmStats returns how many runs replayed a memoized outcome mask
// (hits) versus walked their own warmup (misses, including every first
// run of a key).
func (r *Runner) WarmStats() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// MemoBytes returns the bytes of outcome masks the memo holds.
func (r *Runner) MemoBytes() int64 { return r.used.Load() }

// entry returns the memo slot for a key, creating it if needed. The hot
// path is one atomic load and a map read; inserts copy the map under the
// mutex, which is rare (once per distinct geometry per trace) and cheap
// next to the warmup walk that follows.
func (r *Runner) entry(key warmKey) *warmEntry {
	if e, ok := (*r.warm.Load())[key]; ok {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := *r.warm.Load()
	if e, ok := m[key]; ok {
		return e
	}
	next := make(warmMap, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	e := &warmEntry{}
	next[key] = e
	r.warm.Store(&next)
	return e
}

// Run simulates through the fast path and returns a fresh Result.
func (r *Runner) Run(cfg arch.Config, tr *trace.Trace) (*Result, error) {
	res := new(Result)
	if err := r.RunInto(res, cfg, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto simulates through the fast path into caller-owned storage.
// It performs zero steady-state heap allocations; output is
// bit-identical to Run's full-warmup path.
func (r *Runner) RunInto(out *Result, cfg arch.Config, tr *trace.Trace) error {
	p, err := Derive(cfg)
	if err != nil {
		return err
	}
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("sim: empty trace")
	}
	// Resilience-test injection point: delays model slow runs against a
	// batch deadline, errors and panics exercise the engine's recovery.
	if err := fault.Here("sim.run"); err != nil {
		return err
	}
	traced := obs.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}
	s := r.pool.Get().(*Scratch)
	err = r.runFast(out, s, p, tr)
	r.pool.Put(s)
	if err != nil {
		return err
	}
	observeRun(out, traced, start)
	return nil
}

// runFast simulates in two steps per key: record once, replay always.
// The key's first run walks the warmup and records the timed region's
// cache and predictor outcomes into a budget-charged mask; concurrent
// first runs wait for it. Every run then replays the mask through the
// timing-only kernel. Over budget, a run warms and records into its
// scratch's own mask buffer instead, so results never depend on the
// budget.
func (r *Runner) runFast(out *Result, s *Scratch, p Params, tr *trace.Trace) error {
	key := warmKey{
		tr:       tr,
		il1KB:    p.Config.IL1KB,
		dl1KB:    p.Config.DL1KB,
		dl1Assoc: p.DL1Assoc,
		l2KB:     p.Config.L2KB,
	}
	e := r.entry(key)
	size := int64(tr.Len() - warmupLen(tr.Len()))
	first := false
	var onceErr error
	e.once.Do(func() {
		first = true
		if r.used.Add(size) > r.budget {
			r.used.Add(-size)
			return
		}
		mask := make([]byte, size)
		if onceErr = s.warmRecord(p, tr, mask); onceErr != nil {
			r.used.Add(-size)
			return
		}
		e.mask = mask
	})
	if onceErr != nil {
		return onceErr
	}
	mask := e.mask
	switch {
	case mask == nil:
		// Over budget (or the first walk failed): warm and record locally.
		if cap(s.mask) < int(size) {
			s.mask = make([]byte, size)
		}
		mask = s.mask[:size]
		if err := s.warmRecord(p, tr, mask); err != nil {
			return err
		}
		r.misses.Add(1)
		simWarmMisses.Add(1)
	case first:
		r.misses.Add(1)
		simWarmMisses.Add(1)
	default:
		r.hits.Add(1)
		simWarmHits.Add(1)
		simWarmReplays.Add(1)
	}
	s.timedReplay(out, p, tr, mask)
	return nil
}

// warmRecord reshapes the scratch's hierarchy to the configuration's
// geometry, walks the warmup and records the timed region's outcomes
// into mask.
func (s *Scratch) warmRecord(p Params, tr *trace.Trace, mask []byte) error {
	if err := s.configure(p); err != nil {
		return err
	}
	s.warmup(tr)
	s.record(p, tr, mask)
	return nil
}
