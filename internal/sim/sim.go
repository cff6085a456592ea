package sim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Observability instruments. The counters are always live (one atomic
// add per multi-millisecond simulation); the latency histogram records
// only while tracing is enabled.
var (
	simRuns         = obs.DefaultRegistry.Counter("sim.runs")
	simInstructions = obs.DefaultRegistry.Counter("sim.instructions")
	simCycles       = obs.DefaultRegistry.Counter("sim.cycles")
	simWarmHits     = obs.DefaultRegistry.Counter("sim.warm.hits")
	simWarmMisses   = obs.DefaultRegistry.Counter("sim.warm.misses")
	simWarmReplays  = obs.DefaultRegistry.Counter("sim.warm.replays")
	simRunHist      = obs.DefaultRegistry.Histogram("sim.run")
)

// Activity counts the micro-events of one simulation, the inputs to the
// power model.
type Activity struct {
	Int, FP, Load, Store, Branch int64

	IL1Access, IL1Miss int64
	DL1Access, DL1Miss int64
	L2Access, L2Miss   int64
	MemAccess          int64

	BranchLookups, BranchMispredicts int64

	Issued int64
}

// Result is the outcome of simulating one (configuration, trace) pair.
type Result struct {
	Benchmark string
	Config    arch.Config
	Params    Params

	Instructions int64
	Cycles       int64

	IPC  float64
	BIPS float64 // billions of instructions per second

	Activity Activity
}

// DelaySeconds returns the paper's delay metric: seconds to execute 100M
// instructions at the achieved throughput.
func (r Result) DelaySeconds() float64 { return 0.1 / r.BIPS }

// ring models a fully pipelined resource pool of fixed capacity with
// FIFO slot reuse: the k-th allocation cannot start before the (k-C)-th
// release.
type ring struct {
	slots []int64
	pos   int
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	return &ring{slots: make([]int64, capacity)}
}

// earliest returns the soonest time >= t at which a slot is free.
func (r *ring) earliest(t int64) int64 {
	if s := r.slots[r.pos]; s > t {
		return s
	}
	return t
}

// commit consumes the current slot until the given release time.
func (r *ring) commit(release int64) {
	r.slots[r.pos] = release
	r.pos++
	if r.pos == len(r.slots) {
		r.pos = 0
	}
}

// Scratch holds every piece of per-run mutable state the cycle kernels
// need: the completion array, the backing storage for the resource
// rings, the three caches, the branch history table, and the
// outcome streams and mask of runs the Runner memo cannot hold. A Scratch reaches a steady state after a few runs
// — its arrays grow to the largest geometry seen and are reused — so
// simulating through one performs zero heap allocations. The zero value
// is ready to use. A Scratch is not safe for concurrent use; Run and
// Runner draw them from pools.
type Scratch struct {
	complete []int64
	ringBuf  []int64
	il1      cache.Cache
	dl1      cache.Cache
	l2       cache.Cache
	bht      branch.Predictor
	local    [numStreams]stream // outcome streams the Runner memo cannot hold
	mask     []byte             // outcome mask the Runner memo cannot hold
}

// scratchPool recycles run scratch for the package-level Run entry
// points.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// warmupLen returns the number of leading trace instructions used for
// data-side and predictor warmup.
func warmupLen(n int) int { return int(float64(n) * WarmupFrac) }

// configure reshapes the scratch's caches and predictor to the
// configuration's geometry, clearing their contents.
func (s *Scratch) configure(p Params) error {
	cfg := p.Config
	if err := s.il1.Configure("il1", cfg.IL1KB*1024, IL1Assoc, trace.BlockBytes); err != nil {
		return err
	}
	if err := s.dl1.Configure("dl1", cfg.DL1KB*1024, p.DL1Assoc, trace.BlockBytes); err != nil {
		return err
	}
	if err := s.l2.Configure("l2", cfg.L2KB*1024, L2Assoc, trace.BlockBytes); err != nil {
		return err
	}
	return s.bht.Configure(BHTEntries, 1)
}

// warmup primes the caches and branch predictor without timing, so the
// timed portion measures steady-state behaviour rather than cold-start
// compulsory misses — standard practice for sampled trace simulation
// (the paper's traces are sampled from full runs with systematic warmup
// validation [11]). First-touch misses within the timed region remain,
// preserving the memory-boundedness of streaming workloads.
//
// The instruction side warms over the whole trace: code is static and
// long resident by the time a mid-execution sample begins, so timed
// I-misses should be capacity and conflict misses, not first touches.
// The data side and the predictor warm over the leading WarmupFrac only,
// preserving the compulsory component of streaming workloads.
//
// This is the reference warmup Scratch.Run takes. The fast path walks
// the same accesses per structure (stream.go): the IL1 over the whole
// trace, then the DL1 and the BHT over the leading WarmupFrac, the L2
// seeing the IL1's misses before the DL1's.
func (s *Scratch) warmup(tr *trace.Trace) {
	warm := warmupLen(tr.Len())
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if !s.il1.Access(in.PC) {
			s.l2.Access(in.PC)
		}
	}
	for i := 0; i < warm; i++ {
		in := &tr.Insts[i]
		switch in.Kind {
		case trace.OpLoad, trace.OpStore:
			if !s.dl1.Access(in.Addr) {
				s.l2.Access(in.Addr)
			}
		case trace.OpBranch:
			s.bht.Update(in.PC, in.Taken)
		}
	}
	s.il1.ResetStats()
	s.dl1.ResetStats()
	s.l2.ResetStats()
	s.bht.ResetStats()
}

// Run simulates the trace on the configuration with a full warmup pass,
// writing the result into out — the zero-steady-state-allocation
// equivalent of the package-level Run.
func (s *Scratch) Run(out *Result, cfg arch.Config, tr *trace.Trace) error {
	p, err := Derive(cfg)
	if err != nil {
		return err
	}
	if tr == nil || tr.Len() == 0 {
		return fmt.Errorf("sim: empty trace")
	}
	if err := s.configure(p); err != nil {
		return err
	}
	s.warmup(tr)
	s.timed(out, p, tr)
	return nil
}

// Run simulates the trace on the configuration and returns timing and
// activity. The simulation is deterministic. Per-run working state is
// drawn from a pool, so steady-state cost is the cycle kernel itself.
func Run(cfg arch.Config, tr *trace.Trace) (*Result, error) {
	res := new(Result)
	if err := RunInto(res, cfg, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run writing into caller-owned storage, allocating nothing
// in steady state.
func RunInto(out *Result, cfg arch.Config, tr *trace.Trace) error {
	traced := obs.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}
	s := scratchPool.Get().(*Scratch)
	err := s.Run(out, cfg, tr)
	scratchPool.Put(s)
	if err != nil {
		return err
	}
	observeRun(out, traced, start)
	return nil
}

// observeRun feeds the per-run observability instruments.
func observeRun(out *Result, traced bool, start time.Time) {
	simRuns.Add(1)
	simInstructions.Add(out.Instructions)
	simCycles.Add(out.Cycles)
	if traced {
		simRunHist.Observe(time.Since(start))
	}
}

// numRings is the number of resource rings the kernels carve out of the
// pooled backing array; see prepare for the slot assignment.
const numRings = 15

// prepare readies the scratch's per-run arrays for the timed kernel:
// zeroes the warmup prefix of the completion array (timed entries are
// always written before they are read, so only the prefix needs
// clearing) and carves the resource rings out of one pooled, zeroed
// backing array, in index order. Shared by the reference and fast
// kernels; the last ring is a single dummy slot only the fast kernel
// routes to (see timedReplay).
func (s *Scratch) prepare(p Params, n, warm int) [numRings]ring {
	cfg := p.Config
	if cap(s.complete) < n {
		s.complete = make([]int64, n)
	} else {
		s.complete = s.complete[:n]
	}
	complete := s.complete
	for i := 0; i < warm; i++ {
		complete[i] = 0
	}

	capacities := [numRings]int{
		cfg.Width,     // 0: fetch slots per cycle
		cfg.Width,     // 1: commit slots per cycle
		p.GPRPool,     // 2: integer rename registers
		p.FPRPool,     // 3: floating-point rename registers
		p.SPRPool,     // 4: special-purpose (branch/condition)
		cfg.ResvFX,    // 5: fixed-point reservation stations
		cfg.ResvFP,    // 6: floating-point reservation stations
		cfg.ResvBR,    // 7: branch reservation stations
		cfg.LSQ,       // 8: load queue entries
		cfg.SQ,        // 9: store queue entries
		cfg.FUPerKind, // 10: fixed-point units
		cfg.FUPerKind, // 11: floating-point units
		cfg.FUPerKind, // 12: load/store units
		cfg.FUPerKind, // 13: branch units
		1,             // 14: dummy reservation slot for stores
	}
	total := 0
	for i, c := range capacities {
		if c < 1 {
			capacities[i] = 1
			c = 1
		}
		total += c
	}
	buf := s.ringBuf
	if cap(buf) < total {
		buf = make([]int64, total)
		s.ringBuf = buf
	} else {
		buf = buf[:total]
		s.ringBuf = buf
		for i := range buf {
			buf[i] = 0
		}
	}
	var rings [numRings]ring
	off := 0
	for i, c := range capacities {
		rings[i] = ring{slots: buf[off : off+c]}
		off += c
	}
	return rings
}

// timed runs the cycle-accounting kernel over the post-warmup portion of
// the trace, assuming the scratch's caches and predictor already hold
// warmed state, and writes the result into out. This is the reference
// kernel — the straightforward transcription of the pipeline model that
// the fast path's outcome streams and timedReplay kernel are pinned
// against by golden tests.
func (s *Scratch) timed(out *Result, p Params, tr *trace.Trace) {
	cfg := p.Config
	n := tr.Len()
	warm := warmupLen(n)
	rings := s.prepare(p, n, warm)
	complete := s.complete
	fetchBW := &rings[0]
	retireBW := &rings[1]
	gpr := &rings[2]
	fpr := &rings[3]
	spr := &rings[4]
	rsFX := &rings[5]
	rsFP := &rings[6]
	rsBR := &rings[7]
	lsq := &rings[8]
	sq := &rings[9]
	fuFX := &rings[10]
	fuFP := &rings[11]
	fuLS := &rings[12]
	fuBR := &rings[13]

	// Per-kind routing, resolved once per run instead of switched per
	// instruction: which rename pool, reservation-station class, memory
	// queue and functional unit an instruction of each kind occupies, and
	// its base execution latency. A nil entry means the kind does not use
	// that structure (stores write no register; memory ops wait in the
	// LSQ/SQ instead of a reservation station).
	var (
		poolFor [trace.NumOpKinds]*ring
		rsFor   [trace.NumOpKinds]*ring
		memqFor [trace.NumOpKinds]*ring
		fuFor   [trace.NumOpKinds]*ring
		latFor  [trace.NumOpKinds]int64
	)
	il1Lat := int64(p.IL1Cycles)
	dl1Lat := int64(p.DL1Cycles)
	l2Lat := int64(p.L2Cycles)
	memLat := int64(p.MemCycles)
	poolFor[trace.OpInt], rsFor[trace.OpInt], fuFor[trace.OpInt], latFor[trace.OpInt] = gpr, rsFX, fuFX, IntLatency
	poolFor[trace.OpFP], rsFor[trace.OpFP], fuFor[trace.OpFP], latFor[trace.OpFP] = fpr, rsFP, fuFP, FPLatency
	poolFor[trace.OpLoad], memqFor[trace.OpLoad], fuFor[trace.OpLoad], latFor[trace.OpLoad] = gpr, lsq, fuLS, dl1Lat
	memqFor[trace.OpStore], fuFor[trace.OpStore], latFor[trace.OpStore] = sq, fuLS, StoreLatency
	poolFor[trace.OpBranch], rsFor[trace.OpBranch], fuFor[trace.OpBranch], latFor[trace.OpBranch] = spr, rsBR, fuBR, BranchLatency

	il1, dl1, l2, bht := &s.il1, &s.dl1, &s.l2, &s.bht

	var act Activity
	frontend := int64(p.FrontendStages)

	var (
		redirect     int64 // earliest fetch after the last mispredict
		lastFetch    int64 // fetch time of the previous instruction
		lastDispatch int64 // dispatch is in order
		lastIssue    int64 // enforced only for in-order cores
		lastRetire   int64
		prevTakenAt  int64 = -1 // fetch cycle of the last taken branch
	)
	inOrder := cfg.InOrder

	for i := warm; i < n; i++ {
		in := &tr.Insts[i]
		kind := in.Kind

		// ---- Fetch ----
		f := lastFetch
		if redirect > f {
			f = redirect
		}
		// A taken branch ends its fetch group: the target is fetched no
		// earlier than the following cycle.
		if prevTakenAt >= 0 && f <= prevTakenAt {
			f = prevTakenAt + 1
			prevTakenAt = -1
		}
		f = fetchBW.earliest(f)

		// Instruction cache.
		act.IL1Access++
		if !il1.Access(in.PC) {
			act.IL1Miss++
			stall := l2Lat
			act.L2Access++
			if !l2.Access(in.PC) {
				act.L2Miss++
				act.MemAccess++
				stall += memLat
			}
			f += il1Lat + stall
		}
		fetchBW.commit(f + 1)
		lastFetch = f

		// ---- Rename/dispatch ----
		d := f + frontend
		// A physical destination register must be free.
		pool := poolFor[kind]
		if pool != nil {
			d = pool.earliest(d)
		}
		// A reservation-station slot of the class must be free.
		rs := rsFor[kind]
		if rs != nil {
			d = rs.earliest(d)
		}
		memq := memqFor[kind]
		if memq != nil {
			d = memq.earliest(d)
		}
		// Dispatch proceeds in program order.
		if d < lastDispatch {
			d = lastDispatch
		}
		lastDispatch = d

		// ---- Issue ----
		ready := d + 1 // minimum one cycle in the queue
		// In-order cores issue in program order with stall-on-use:
		// nothing may issue before its predecessor has.
		if inOrder && lastIssue > ready {
			ready = lastIssue
		}
		if in.Dep1 > 0 {
			if c := complete[i-int(in.Dep1)]; c > ready {
				ready = c
			}
		}
		if in.Dep2 > 0 {
			if c := complete[i-int(in.Dep2)]; c > ready {
				ready = c
			}
		}
		fu := fuFor[kind]
		issue := fu.earliest(ready)
		fu.commit(issue + 1) // fully pipelined units
		lastIssue = issue
		act.Issued++

		// ---- Execute/complete ----
		lat := latFor[kind]
		switch kind {
		case trace.OpInt:
			act.Int++
		case trace.OpFP:
			act.FP++
		case trace.OpBranch:
			act.Branch++
		case trace.OpStore:
			act.Store++
			// Stores update the hierarchy for state and power accounting;
			// the store buffer hides their latency.
			act.DL1Access++
			if !dl1.Access(in.Addr) {
				act.DL1Miss++
				act.L2Access++
				if !l2.Access(in.Addr) {
					act.L2Miss++
					act.MemAccess++
				}
			}
		case trace.OpLoad:
			act.Load++
			act.DL1Access++
			if !dl1.Access(in.Addr) {
				act.DL1Miss++
				act.L2Access++
				lat += l2Lat
				if !l2.Access(in.Addr) {
					act.L2Miss++
					act.MemAccess++
					lat += memLat
				}
			}
		}
		c := issue + lat
		complete[i] = c

		// Release the structures the instruction held.
		if rs != nil {
			rs.commit(issue)
		}
		if memq != nil {
			if kind == trace.OpLoad {
				memq.commit(c)
			}
			// Store queue entries release at retirement, handled below.
		}

		// ---- Branch resolution ----
		if kind == trace.OpBranch {
			act.BranchLookups++
			if bht.Update(in.PC, in.Taken) {
				act.BranchMispredicts++
				// Wrong-path fetch halts until the branch resolves; the
				// refetched path then refills the front end.
				if r := c + p.MispredictRedirect(); r > redirect {
					redirect = r
				}
			} else if in.Taken {
				prevTakenAt = f
			}
		}

		// ---- Retire (in order, width per cycle) ----
		ret := c
		if ret < lastRetire {
			ret = lastRetire
		}
		ret = retireBW.earliest(ret)
		retireBW.commit(ret + 1)
		lastRetire = ret
		if pool != nil {
			pool.commit(ret)
		}
		if kind == trace.OpStore {
			sq.commit(ret)
		}
	}

	timed := int64(n - warm)
	cycles := lastRetire + 1
	if prof, ok := trace.ProfileFor(tr.Name); ok && prof.IPCScale != 1 {
		cycles = int64(float64(cycles) / prof.IPCScale)
	}
	*out = Result{
		Benchmark:    tr.Name,
		Config:       cfg,
		Params:       p,
		Instructions: timed,
		Cycles:       cycles,
		Activity:     act,
	}
	out.IPC = float64(timed) / float64(cycles)
	out.BIPS = out.IPC * p.FreqGHz
}
