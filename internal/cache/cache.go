// Package cache implements set-associative caches with true-LRU
// replacement, the memory substrate of the timing simulator. The modeled
// hierarchy matches the paper's Table 3: split L1 instruction and data
// caches backed by a unified L2, all with 128-byte blocks.
package cache

import "fmt"

// Cache is one level of set-associative cache. The zero value is not
// usable; construct with New.
type Cache struct {
	name      string
	sets      int
	assoc     int
	blockBits uint
	setMask   uint32

	// tags[set*assoc+way]; valid bit folded in (tag 0 + valid flag).
	tags  []uint32
	valid []bool
	// lru[set*assoc+way] holds a recency counter; larger = more recent.
	lru     []uint64
	counter uint64

	accesses, misses uint64
}

// New constructs a cache of the given capacity in bytes with the given
// associativity and block size. Capacity must be divisible by
// assoc*blockBytes and the set count must be a power of two.
func New(name string, capacityBytes, assoc, blockBytes int) (*Cache, error) {
	c := &Cache{}
	if err := c.Configure(name, capacityBytes, assoc, blockBytes); err != nil {
		return nil, err
	}
	return c, nil
}

// Configure reshapes the cache to the given geometry, reusing the
// existing backing arrays when they are large enough (so a pooled cache
// reconfigured run after run reaches a steady state with zero heap
// allocations), and clears contents and statistics. The geometry rules
// are those of New.
func (c *Cache) Configure(name string, capacityBytes, assoc, blockBytes int) error {
	if capacityBytes <= 0 || assoc <= 0 || blockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry for %s", name)
	}
	if blockBytes&(blockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", blockBytes)
	}
	blocks := capacityBytes / blockBytes
	if blocks*blockBytes != capacityBytes {
		return fmt.Errorf("cache: capacity %d not divisible by block size %d", capacityBytes, blockBytes)
	}
	if assoc > blocks {
		assoc = blocks // degenerate small cache: clamp to fully associative
	}
	sets := blocks / assoc
	if sets*assoc != blocks {
		return fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	blockBits := uint(0)
	for 1<<blockBits != blockBytes {
		blockBits++
	}
	c.name = name
	c.sets = sets
	c.assoc = assoc
	c.blockBits = blockBits
	c.setMask = uint32(sets - 1)
	c.tags = growUint32(c.tags, blocks)
	c.valid = growBool(c.valid, blocks)
	c.lru = growUint64(c.lru, blocks)
	c.Reset()
	return nil
}

func growUint32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Access looks up the block containing addr, installing it on a miss
// (allocate-on-miss for both reads and writes, matching a write-allocate
// write-back design). It reports whether the access hit.
func (c *Cache) Access(addr uint32) bool {
	c.accesses++
	block := addr >> c.blockBits
	set := int(block & c.setMask)
	tag := block // full block number as tag; set bits are redundant but harmless
	base := set * c.assoc

	c.counter++
	// One bounds check per set, not per way: the inner loops below run on
	// these set-local views, which the compiler proves in range.
	tags := c.tags[base : base+c.assoc]
	valid := c.valid[base : base+c.assoc]
	lru := c.lru[base : base+c.assoc]
	// Hit path.
	for w, v := range valid {
		if v && tags[w] == tag {
			lru[w] = c.counter
			return true
		}
	}
	// Miss: fill the invalid or least recently used way.
	c.misses++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w, v := range valid {
		if !v {
			victim = w
			break
		}
		if lru[w] < oldest {
			oldest = lru[w]
			victim = w
		}
	}
	tags[victim] = tag
	valid[victim] = true
	lru[victim] = c.counter
	return false
}

// AccessDirect is Access specialized for a direct-mapped cache: no way
// loop, no set-local slices, small enough for the compiler to inline
// into simulator hot loops. State updates are bit-identical to Access
// with assoc 1 (where the hit way and the victim way are the same way,
// so the recency write hoists out of the hit/miss split). Callers must
// ensure Assoc() == 1.
func (c *Cache) AccessDirect(addr uint32) bool {
	c.accesses++
	block := addr >> c.blockBits
	set := block & c.setMask
	c.counter++
	c.lru[set] = c.counter
	if c.valid[set] && c.tags[set] == block {
		return true
	}
	c.misses++
	c.tags[set] = block
	c.valid[set] = true
	return false
}

// Access2 is Access unrolled for a two-way set-associative cache — the
// data cache's fixed associativity in the paper's design space. Hit
// scan, victim choice (first invalid way, else least recently used with
// ties to way 0) and every state update are bit-identical to Access.
// Callers must ensure Assoc() == 2.
func (c *Cache) Access2(addr uint32) bool {
	c.accesses++
	block := addr >> c.blockBits
	base := int(block&c.setMask) * 2
	c.counter++
	t := c.tags[base : base+2 : base+2]
	v := c.valid[base : base+2 : base+2]
	l := c.lru[base : base+2 : base+2]
	if v[0] && t[0] == block {
		l[0] = c.counter
		return true
	}
	if v[1] && t[1] == block {
		l[1] = c.counter
		return true
	}
	c.misses++
	w := 0
	if v[0] && (!v[1] || l[1] < l[0]) {
		w = 1
	}
	t[w] = block
	v[w] = true
	l[w] = c.counter
	return false
}

// Access4 is Access unrolled for a four-way set-associative cache — the
// L2's fixed associativity. Semantics are bit-identical to Access;
// callers must ensure Assoc() == 4.
func (c *Cache) Access4(addr uint32) bool {
	c.accesses++
	block := addr >> c.blockBits
	base := int(block&c.setMask) * 4
	c.counter++
	t := c.tags[base : base+4 : base+4]
	v := c.valid[base : base+4 : base+4]
	l := c.lru[base : base+4 : base+4]
	if v[0] && t[0] == block {
		l[0] = c.counter
		return true
	}
	if v[1] && t[1] == block {
		l[1] = c.counter
		return true
	}
	if v[2] && t[2] == block {
		l[2] = c.counter
		return true
	}
	if v[3] && t[3] == block {
		l[3] = c.counter
		return true
	}
	c.misses++
	w := 0
	switch {
	case !v[0]:
		w = 0
	case !v[1]:
		w = 1
	case !v[2]:
		w = 2
	case !v[3]:
		w = 3
	default:
		min := l[0]
		if l[1] < min {
			w, min = 1, l[1]
		}
		if l[2] < min {
			w, min = 2, l[2]
		}
		if l[3] < min {
			w = 3
		}
	}
	t[w] = block
	v[w] = true
	l[w] = c.counter
	return false
}

// Rehit records another access to the block that the immediately
// preceding access left resident in a direct-mapped set: statistics and
// recency advance exactly as a full AccessDirect hit would, without the
// tag compare. Callers must ensure Assoc() == 1 and that set is the
// block's set index.
func (c *Cache) Rehit(set uint32) {
	c.accesses++
	c.counter++
	c.lru[set] = c.counter
}

// BlockShift returns log2 of the block size: addr >> BlockShift() is the
// block number.
func (c *Cache) BlockShift() uint { return c.blockBits }

// SetMask returns the mask extracting the set index from a block number.
func (c *Cache) SetMask() uint32 { return c.setMask }

// Probe reports whether the block containing addr is resident without
// updating replacement state or statistics.
func (c *Cache) Probe(addr uint32) bool {
	block := addr >> c.blockBits
	set := int(block & c.setMask)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == block {
			return true
		}
	}
	return false
}

// ResetStats clears the access counters but keeps cache contents: used
// after a warmup pass so measured miss rates reflect steady state rather
// than cold start.
func (c *Cache) ResetStats() {
	c.accesses = 0
	c.misses = 0
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
	c.counter = 0
	c.accesses = 0
	c.misses = 0
}

// Stats returns the access and miss counts since the last Reset.
func (c *Cache) Stats() (accesses, misses uint64) {
	return c.accesses, c.misses
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}
