package sim

import "repro/internal/trace"

// Outcome-mask bits, one byte per timed-region instruction. The caches
// and the branch history table are private structures driven in program
// order by an immutable trace, so for a fixed (trace, geometry) warm key
// their hit/miss/mispredict outcomes are identical across every
// configuration — latencies, width, depth, pools and queues change when
// events cost, never whether they occur. Recording the outcomes once per
// key (Runner.buildMask, from the per-structure streams of stream.go) lets
// every run of the key replay them without simulating the hierarchy at
// all (timedReplay).
const (
	mIL1Miss    byte = 1 << iota // instruction fetch missed the IL1
	mIL2Miss                     // ...and the L2 (memory fill)
	mDL1Miss                     // load/store missed the DL1
	mDL2Miss                     // ...and the L2 (memory fill)
	mMispredict                  // branch was mispredicted
)

// cursor is one resource ring's position as absolute indices into the
// scratch's ring buffer: the ring occupies buf[lo:hi] and pos is the
// slot the next allocation takes.
type cursor struct{ pos, lo, hi int }

// advance moves to the next slot. The rings a route names advance in
// the trace's kind order, so the wrap is written for a conditional move
// rather than a branch the CPU would have to predict.
func (c *cursor) advance() {
	p, lo := c.pos+1, c.lo
	if p == c.hi {
		p = lo
	}
	c.pos = p
}

// route is one instruction kind's path through the pipeline, resolved
// once per run: the rename pool it holds until retirement, the
// reservation ring it holds from dispatch, the functional unit it
// issues to, and its execution latency indexed by the outcome mask's two
// DL bits. Loads wait in the load queue instead of a reservation station
// and hold it until they complete; stores wait in the store queue, which
// they hold until retirement like a pool, and take a dummy reservation
// slot that is always committed 0, so it never delays a dispatch.
type route struct {
	pool, rs, fu *cursor
	lat          [4]int64
	rsLat        int64 // -1 when the reservation slot is held to completion, else 0
	rsKeep       int64 // 0 for the dummy reservation slot, else -1
	branch       int64 // -1 for branches, else 0
}

// timedReplay is the fast path's cycle-accounting kernel: it consumes a
// recorded outcome mask instead of simulating the caches and the branch
// predictor, so it touches no hierarchy state at all — just latency
// arithmetic over the resource rings. It computes exactly what timed
// computes (the golden tests in fast_test.go and the eval/core layers
// pin the two bit-for-bit) but as one straight-line step for every
// instruction kind: the kind only selects a route, and every other
// choice the reference kernel branches on — a cache miss's stall, a
// dependency's presence, in-order issue, a mispredict's redirect, a
// taken branch's fetch break — is a table lookup, a mask or a max, so
// the CPU has no data-dependent branch to mispredict. The reference
// kernel stays the plain transcription of the pipeline model; this
// file is allowed to be clever precisely because timed is not.
//
// mask holds one byte per timed instruction as built by Runner.buildMask;
// because outcomes are configuration-independent within a warm key (see
// the m* constants), replaying them under different latencies, widths,
// depths, pools and queues is bit-identical to simulating them. The
// activity counts read the mask's bits directly, which relies on the
// invariants buildMask guarantees: an L2 miss bit implies its L1 miss
// bit, DL bits mark only loads and stores, and mMispredict only branches.
func (s *Scratch) timedReplay(out *Result, p Params, tr *trace.Trace, mask []byte) {
	cfg := p.Config
	n := tr.Len()
	warm := warmupLen(n)
	rings := s.prepare(p, n, warm)
	complete := s.complete
	buf := s.ringBuf

	var cur [numRings]cursor
	off := 0
	for k := range rings {
		cur[k] = cursor{pos: off, lo: off, hi: off + len(rings[k].slots)}
		off += len(rings[k].slots)
	}
	// Fetch and retire slots advance on every instruction, so they live
	// in locals and wrap with a branch whose period predicts well.
	fpos, flo, fhi := cur[0].pos, cur[0].lo, cur[0].hi
	rpos, rlo, rhi := cur[1].pos, cur[1].lo, cur[1].hi

	il1Lat := int64(p.IL1Cycles)
	dl1Lat := int64(p.DL1Cycles)
	l2Lat := int64(p.L2Cycles)
	memLat := int64(p.MemCycles)
	redirectLat := p.MispredictRedirect()
	// Indexed by the IL1 bits and by the DL bits; the L2-miss-only
	// entries cannot occur.
	fetchStall := [4]int64{0, il1Lat + l2Lat, 0, il1Lat + l2Lat + memLat}
	fixed := func(lat int64) [4]int64 { return [4]int64{lat, lat, lat, lat} }
	var routes [trace.NumOpKinds]route
	routes[trace.OpInt] = route{pool: &cur[2], rs: &cur[5], fu: &cur[10], lat: fixed(IntLatency), rsKeep: -1}
	routes[trace.OpFP] = route{pool: &cur[3], rs: &cur[6], fu: &cur[11], lat: fixed(FPLatency), rsKeep: -1}
	routes[trace.OpLoad] = route{pool: &cur[2], rs: &cur[8], fu: &cur[12],
		lat: [4]int64{dl1Lat, dl1Lat + l2Lat, dl1Lat, dl1Lat + l2Lat + memLat}, rsLat: -1, rsKeep: -1}
	routes[trace.OpStore] = route{pool: &cur[9], rs: &cur[14], fu: &cur[12], lat: fixed(StoreLatency)}
	routes[trace.OpBranch] = route{pool: &cur[4], rs: &cur[7], fu: &cur[13], lat: fixed(BranchLatency), rsKeep: -1, branch: -1}

	frontend := int64(p.FrontendStages)
	var inOrder int64
	if cfg.InOrder {
		inOrder = -1
	}
	var (
		redirect     int64 // earliest fetch after the last mispredict
		prevTaken    int64 // earliest fetch after the last taken branch
		lastFetch    int64
		lastDispatch int64
		lastIssue    int64
		lastRetire   int64
		kinds        [trace.NumOpKinds]int64
		il1Miss      int64
		dl1Miss      int64
		l2Miss       int64
		mispredicts  int64
	)
	mask = mask[:n-warm]

	for i := warm; i < n; i++ {
		in := &tr.Insts[i]
		m := mask[i-warm]
		r := &routes[in.Kind]
		kinds[in.Kind]++
		il1Miss += int64(m & mIL1Miss)
		dl1Miss += int64(m >> 2 & 1)
		l2Miss += int64(m>>1&1 + m>>3&1)
		mispredicts += int64(m >> 4)

		// Fetch. A taken branch ends its fetch group; the reference
		// kernel forgets it once it has delayed a fetch, but fetch time
		// never decreases, so a stale prevTaken can never win again.
		f := max(lastFetch, redirect, prevTaken, buf[fpos]) + fetchStall[m&3]
		buf[fpos] = f + 1
		if fpos++; fpos == fhi {
			fpos = flo
		}
		lastFetch = f

		// Dispatch, in order, once a rename register and a
		// reservation slot are free.
		d := max(f+frontend, buf[r.pool.pos], buf[r.rs.pos], lastDispatch)
		lastDispatch = d

		// Issue to a fully pipelined unit once the operands are ready;
		// a zero distance names no producer.
		c1 := complete[i-int(in.Dep1)]
		if in.Dep1 == 0 {
			c1 = 0
		}
		c2 := complete[i-int(in.Dep2)]
		if in.Dep2 == 0 {
			c2 = 0
		}
		issue := max(d+1, lastIssue&inOrder, c1, c2, buf[r.fu.pos])
		buf[r.fu.pos] = issue + 1
		r.fu.advance()
		lastIssue = issue

		lat := r.lat[m>>2&3]
		c := issue + lat
		complete[i] = c
		buf[r.rs.pos] = (issue + lat&r.rsLat) & r.rsKeep
		r.rs.advance()

		// A mispredict halts fetch until the branch resolves and the
		// front end refills; a taken branch ends its fetch group. The
		// reference kernel marks the group's end only for a correctly
		// predicted branch, but a mispredict's redirect already holds
		// fetch past f+1, so marking it too changes nothing.
		redirect = max(redirect, (c+redirectLat)&-int64(m>>4))
		var taken int64
		if in.Taken {
			taken = -1
		}
		prevTaken = max(prevTaken, (f+1)&taken&r.branch)

		// Retire in order, width per cycle, releasing the pool slot.
		ret := max(c, lastRetire, buf[rpos])
		buf[rpos] = ret + 1
		if rpos++; rpos == rhi {
			rpos = rlo
		}
		lastRetire = ret
		buf[r.pool.pos] = ret
		r.pool.advance()
	}

	var act Activity
	act.Int, act.FP, act.Load, act.Store, act.Branch =
		kinds[trace.OpInt], kinds[trace.OpFP], kinds[trace.OpLoad], kinds[trace.OpStore], kinds[trace.OpBranch]
	act.IL1Miss, act.DL1Miss, act.L2Miss, act.BranchMispredicts = il1Miss, dl1Miss, l2Miss, mispredicts

	// Access and issue totals are structural — one I-fetch and one issue
	// per instruction, one D-access per memory op, one L2 access per L1
	// miss, one memory access per L2 miss, one BHT lookup per branch — so
	// replay derives them instead of counting them in the loop.
	timed := int64(n - warm)
	act.Issued = timed
	act.IL1Access = timed
	act.DL1Access = act.Load + act.Store
	act.L2Access = act.IL1Miss + act.DL1Miss
	act.MemAccess = act.L2Miss
	act.BranchLookups = act.Branch

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
