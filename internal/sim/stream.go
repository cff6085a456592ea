package sim

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// A warm key's outcome mask is composed from per-structure outcome
// streams. No cache or predictor feeds back into another's state: the
// L1s and the BHT see the trace in program order whatever the L2 does,
// and the L2 sees exactly the L1 misses. So the IL1's outcomes depend
// only on (trace, IL1 capacity), the DL1's only on (trace, DL1 geometry)
// and the BHT's only on the trace (its geometry is a package constant).
// Each stream is walked once per Runner and shared by every warm key
// that names it; a key's first run then only drives its L2 through the
// L1 miss lists (Runner.buildMask).

// Stream kinds, indexing Scratch.local.
const (
	streamIL1 = iota
	streamDL1
	streamBHT
	numStreams
)

// streamKey identifies one structure's outcome stream over one trace.
// kb and assoc are the cache geometry (both zero for the BHT); tr is the
// trace pointer, as in warmKey.
type streamKey struct {
	tr    *trace.Trace
	kind  int
	kb    int
	assoc int
}

// stream holds one structure's outcomes as ascending trace indices. For
// the caches, warm lists the misses of the warmup walk and timed the
// misses of the timed region, walked from the warmed state; for the BHT,
// warm is empty (its warmup outcomes reach nothing) and timed lists the
// mispredicted branches.
type stream struct {
	warm, timed []int32
}

// bytes is the stream's charge against the memo budget.
func (st *stream) bytes() int64 { return 4 * int64(len(st.warm)+len(st.timed)) }

// streamEntry is one stream's memo slot: the once walks the stream
// exactly once however many keys race on it. st is written only inside
// the once and stays nil when the memo budget is exhausted (or the walk
// failed), in which case later runs walk their own.
type streamEntry struct {
	once sync.Once
	st   *stream
}

// onceMap is a copy-on-write map of memo slots. The hot path is one
// atomic load and a map read; inserts copy the map under the mutex,
// which is rare (once per distinct key) and cheap next to the walk that
// follows. The zero value is an empty map.
type onceMap[K comparable, V any] struct {
	m  atomic.Pointer[map[K]*V]
	mu sync.Mutex
}

// all returns the current map; callers must not modify it.
func (o *onceMap[K, V]) all() map[K]*V {
	if p := o.m.Load(); p != nil {
		return *p
	}
	return nil
}

// get returns the slot for a key, creating it if needed.
func (o *onceMap[K, V]) get(k K) *V {
	if v, ok := o.all()[k]; ok {
		return v
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	old := o.all()
	if v, ok := old[k]; ok {
		return v
	}
	next := make(map[K]*V, len(old)+1)
	maps.Copy(next, old)
	v := new(V)
	next[k] = v
	o.m.Store(&next)
	return v
}

// stream returns the outcome stream for a key: the memoized one if the
// memo holds it or can fit it, otherwise one walked into the scratch's
// own lists, so results never depend on the budget.
func (r *Runner) stream(s *Scratch, tr *trace.Trace, key streamKey) (*stream, error) {
	e := r.streams.get(key)
	local := &s.local[key.kind]
	walked := false
	var err error
	e.once.Do(func() {
		if err = s.walk(local, tr, key); err != nil {
			return
		}
		r.walks.Add(1)
		walked = true
		n := local.bytes()
		if !r.charge(n) {
			return
		}
		r.streamUsed.Add(n)
		e.st = &stream{warm: slices.Clone(local.warm), timed: slices.Clone(local.timed)}
	})
	if err != nil {
		return nil, err
	}
	if e.st != nil {
		return e.st, nil
	}
	if !walked {
		if err := s.walk(local, tr, key); err != nil {
			return nil, err
		}
		r.walks.Add(1)
	}
	return local, nil
}

// walk reshapes the key's structure to its geometry and walks the trace
// through it into st, reusing st's lists.
func (s *Scratch) walk(st *stream, tr *trace.Trace, key streamKey) error {
	n := tr.Len()
	warm := warmupLen(n)
	switch key.kind {
	case streamIL1:
		if err := s.il1.Configure("il1", key.kb*1024, IL1Assoc, trace.BlockBytes); err != nil {
			return err
		}
		st.warm = s.il1Misses(st.warm[:0], tr, 0, n)
		st.timed = s.il1Misses(st.timed[:0], tr, warm, n)
	case streamDL1:
		if err := s.dl1.Configure("dl1", key.kb*1024, key.assoc, trace.BlockBytes); err != nil {
			return err
		}
		st.warm = s.dl1Misses(st.warm[:0], tr, 0, warm)
		st.timed = s.dl1Misses(st.timed[:0], tr, warm, n)
	case streamBHT:
		if err := s.bht.Configure(BHTEntries, 1); err != nil {
			return err
		}
		for i := 0; i < warm; i++ {
			if in := &tr.Insts[i]; in.Kind == trace.OpBranch {
				s.bht.Update(in.PC, in.Taken)
			}
		}
		st.warm = st.warm[:0]
		st.timed = s.mispredicts(st.timed[:0], tr, warm, n)
	}
	return nil
}

// il1Misses fetches instructions [lo, hi) through the IL1 and appends
// the indices that missed. The instruction cache is always direct-mapped
// (IL1Assoc is a package constant of 1), so lookups go through the
// inlinable cache.AccessDirect, and consecutive instructions in the same
// cache block — the overwhelmingly common case — short-circuit the tag
// compare through cache.Rehit: both the hit and the miss path of the
// previous access left the block resident.
func (s *Scratch) il1Misses(dst []int32, tr *trace.Trace, lo, hi int) []int32 {
	il1 := &s.il1
	shift, setMask := il1.BlockShift(), il1.SetMask()
	last := int64(-1) // I-block of the previous fetch; -1 = none
	for i := lo; i < hi; i++ {
		pc := tr.Insts[i].PC
		blk := pc >> shift
		if int64(blk) == last {
			il1.Rehit(blk & setMask)
			continue
		}
		last = int64(blk)
		if !il1.AccessDirect(pc) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// dl1Misses sends the loads and stores of [lo, hi) through the DL1 and
// appends the indices that missed. The data cache dispatches once to the
// unrolled access of its associativity: every design-space configuration
// has a 2-way data cache (Table 3), with direct-mapped and generic
// fallbacks for the override extensions. All leave state bit-identical
// to the generic Access the reference kernel takes.
func (s *Scratch) dl1Misses(dst []int32, tr *trace.Trace, lo, hi int) []int32 {
	dl1 := &s.dl1
	two, direct := dl1.Assoc() == 2, dl1.Assoc() == 1
	for i := lo; i < hi; i++ {
		in := &tr.Insts[i]
		if in.Kind != trace.OpLoad && in.Kind != trace.OpStore {
			continue
		}
		var hit bool
		switch {
		case two:
			hit = dl1.Access2(in.Addr)
		case direct:
			hit = dl1.AccessDirect(in.Addr)
		default:
			hit = dl1.Access(in.Addr)
		}
		if !hit {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// mispredicts trains the BHT on the branches of [lo, hi) and appends the
// indices it mispredicted.
func (s *Scratch) mispredicts(dst []int32, tr *trace.Trace, lo, hi int) []int32 {
	for i := lo; i < hi; i++ {
		in := &tr.Insts[i]
		if in.Kind == trace.OpBranch && s.bht.Update(in.PC, in.Taken) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// buildMask builds a warm key's outcome mask (one byte per timed
// instruction, the m* bits) from its three streams and an L2 walk. The
// L2 sees exactly the reference access sequence: the IL1's warmup misses
// then the DL1's, in the order Scratch.warmup issues them, then the
// timed misses merged by instruction index, an instruction's fetch
// before its data access. No latency, width or queue parameter is read,
// so the mask is a function of the warm key alone.
func (r *Runner) buildMask(s *Scratch, p Params, tr *trace.Trace, mask []byte) error {
	il1, err := r.stream(s, tr, streamKey{tr: tr, kind: streamIL1, kb: p.Config.IL1KB})
	if err != nil {
		return err
	}
	dl1, err := r.stream(s, tr, streamKey{tr: tr, kind: streamDL1, kb: p.Config.DL1KB, assoc: p.DL1Assoc})
	if err != nil {
		return err
	}
	bht, err := r.stream(s, tr, streamKey{tr: tr, kind: streamBHT})
	if err != nil {
		return err
	}
	if err := s.l2.Configure("l2", p.Config.L2KB*1024, L2Assoc, trace.BlockBytes); err != nil {
		return err
	}
	insts := tr.Insts
	four := s.l2.Assoc() == 4
	for _, i := range il1.warm {
		s.l2Access(four, insts[i].PC)
	}
	for _, i := range dl1.warm {
		s.l2Access(four, insts[i].Addr)
	}

	warm := int32(warmupLen(len(insts)))
	clear(mask)
	im, dm := il1.timed, dl1.timed
	for len(im) > 0 || len(dm) > 0 {
		if len(dm) == 0 || (len(im) > 0 && im[0] <= dm[0]) {
			i := im[0]
			im = im[1:]
			b := mIL1Miss
			if !s.l2Access(four, insts[i].PC) {
				b |= mIL2Miss
			}
			mask[i-warm] |= b
		} else {
			i := dm[0]
			dm = dm[1:]
			b := mDL1Miss
			if !s.l2Access(four, insts[i].Addr) {
				b |= mDL2Miss
			}
			mask[i-warm] |= b
		}
	}
	for _, i := range bht.timed {
		mask[i-warm] |= mMispredict
	}
	return nil
}

// l2Access sends one L1 miss to the L2, through the unrolled access when
// the L2 has its design-space associativity of 4.
func (s *Scratch) l2Access(four bool, addr uint32) bool {
	if four {
		return s.l2.Access4(addr)
	}
	return s.l2.Access(addr)
}
