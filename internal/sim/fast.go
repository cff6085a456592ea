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

// DefaultWarmBudget bounds the total heap the memo may hold: outcome
// masks at one byte per timed instruction plus per-structure outcome
// streams at four bytes per listed miss. A full training sweep touches
// at most il1×dl1×l2 = 125 geometry combinations and 11 streams per
// benchmark, so the default comfortably covers the paper's workloads;
// overflowing runs simply walk their own streams and build their own
// mask.
const DefaultWarmBudget int64 = 256 << 20

// warmKey identifies one memoizable outcome mask. Warmup and the timed
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

// warmEntry is one key's memo slot: the once builds the key's outcome
// mask (one byte per timed instruction, see the m* bits in kernel.go)
// exactly once however many goroutines race on the key. mask is written
// only inside the once, so every caller that returns from the once sees
// it; it stays nil when the memo budget is exhausted (or the build
// failed), in which case later runs build their own.
type warmEntry struct {
	once sync.Once
	mask []byte
}

// Runner is the simulator's steady-state fast path: a pool of run
// scratch plus a two-level memo of cache and branch-predictor outcomes.
// Per-structure outcome streams (stream.go) are walked once per (trace,
// structure geometry) and shared; the first run of each (trace, cache
// geometry) key composes them through its L2 into the key's outcome
// mask, and every run of the key, the first included, replays the mask
// through the timing-only kernel without touching the hierarchy.
// Results are bit-identical to Run's. Safe for concurrent use.
type Runner struct {
	pool       sync.Pool
	warm       onceMap[warmKey, warmEntry]
	streams    onceMap[streamKey, streamEntry]
	budget     int64
	used       atomic.Int64 // masks and streams
	streamUsed atomic.Int64 // streams alone
	walks      atomic.Int64 // stream walks, memoized or not
	hits       atomic.Int64
	misses     atomic.Int64
}

// NewRunner returns a fast-path runner with the default memo budget.
func NewRunner() *Runner {
	r := &Runner{budget: DefaultWarmBudget}
	r.pool.New = func() any { return new(Scratch) }
	return r
}

// SetWarmBudget caps the memo's total bytes, outcome masks and streams
// together. Runs whose mask or streams would exceed the cap build their
// own and nothing is evicted; results are unaffected either way. Call
// before the runner is shared.
func (r *Runner) SetWarmBudget(bytes int64) { r.budget = bytes }

// WarmStats returns how many runs replayed a memoized outcome mask
// (hits) versus built their own (misses, including every first run of a
// key).
func (r *Runner) WarmStats() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// MemoBytes returns the bytes the memo holds: outcome masks plus
// per-structure outcome streams.
func (r *Runner) MemoBytes() int64 { return r.used.Load() }

// StreamBytes returns the part of MemoBytes held by per-structure
// outcome streams.
func (r *Runner) StreamBytes() int64 { return r.streamUsed.Load() }

// charge reserves n bytes of the memo budget, reporting whether they
// fit; a rejected charge is given back at once.
func (r *Runner) charge(n int64) bool {
	if r.used.Add(n) > r.budget {
		r.used.Add(-n)
		return false
	}
	return true
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
// The key's first run builds the timed region's outcome mask from the
// shared per-structure streams into a budget-charged buffer; concurrent
// first runs wait for it. Every run then replays the mask through the
// timing-only kernel. Over budget, a run builds the mask into its
// scratch's own buffer instead, so results never depend on the budget.
func (r *Runner) runFast(out *Result, s *Scratch, p Params, tr *trace.Trace) error {
	key := warmKey{
		tr:       tr,
		il1KB:    p.Config.IL1KB,
		dl1KB:    p.Config.DL1KB,
		dl1Assoc: p.DL1Assoc,
		l2KB:     p.Config.L2KB,
	}
	e := r.warm.get(key)
	size := int64(tr.Len() - warmupLen(tr.Len()))
	first := false
	var onceErr error
	e.once.Do(func() {
		first = true
		if !r.charge(size) {
			return
		}
		mask := make([]byte, size)
		if onceErr = r.buildMask(s, p, tr, mask); onceErr != nil {
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
		// Over budget (or the first build failed): build locally.
		if cap(s.mask) < int(size) {
			s.mask = make([]byte, size)
		}
		mask = s.mask[:size]
		if err := r.buildMask(s, p, tr, mask); err != nil {
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
