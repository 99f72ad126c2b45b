// Package mem implements the simulated cache hierarchy of paper Table 2:
// split L1 instruction/data caches backed by unified L2 and L3 caches and
// main memory, with LRU replacement, non-blocking misses limited by a fixed
// number of MSHRs (outstanding misses), and miss merging.
//
// The timing model is timestamp-based: an access at cycle `now` returns the
// cycle at which its data is available. Lines are installed eagerly at every
// level while an in-flight table carries the true fill time, so a later
// access to a line still in flight observes the earlier miss's completion
// time — this is what gives pre-executed loads (runahead, multipass advance
// mode) their prefetching effect.
package mem

import "fmt"

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	// Latency is the total load-use latency in cycles when the access hits
	// at this level (Table 2 reports cumulative latencies).
	Latency int
}

// Lines returns the number of lines in the level.
func (c LevelConfig) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets in the level.
func (c LevelConfig) Sets() int { return c.Lines() / c.Assoc }

func (c LevelConfig) validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	// A way word keeps the line's state in the two low address bits, and a
	// recency word holds 16 four-bit way indices.
	if c.LineBytes < 4 {
		return fmt.Errorf("mem: %s: line size %d below 4 bytes", c.Name, c.LineBytes)
	}
	if c.Assoc > 16 {
		return fmt.Errorf("mem: %s: associativity %d above 16 ways", c.Name, c.Assoc)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("mem: %s: size %d not divisible by assoc*line", c.Name, c.SizeBytes)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", c.Name, s)
	}
	if c.Latency < 1 {
		return fmt.Errorf("mem: %s: latency %d < 1", c.Name, c.Latency)
	}
	return nil
}

// CacheStats counts per-level activity.
type CacheStats struct {
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
	// AdvanceAccesses/AdvanceMisses count only accesses issued by
	// speculative pre-execution (advance mode, runahead).
	AdvanceAccesses uint64 `json:"advance_accesses"`
	AdvanceMisses   uint64 `json:"advance_misses"`
	// Writebacks counts dirty lines evicted from this level.
	Writebacks uint64 `json:"writebacks"`
}

// Add accumulates o into s fieldwise; Sub removes it. Interval stitching
// adds per-interval snapshots and subtracts warm-up baselines, so both
// operations must cover every counter.
func (s *CacheStats) Add(o CacheStats) {
	s.Accesses += o.Accesses
	s.Misses += o.Misses
	s.AdvanceAccesses += o.AdvanceAccesses
	s.AdvanceMisses += o.AdvanceMisses
	s.Writebacks += o.Writebacks
}

// Sub removes o from s fieldwise.
func (s *CacheStats) Sub(o CacheStats) {
	s.Accesses -= o.Accesses
	s.Misses -= o.Misses
	s.AdvanceAccesses -= o.AdvanceAccesses
	s.AdvanceMisses -= o.AdvanceMisses
	s.Writebacks -= o.Writebacks
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Way words. A level stores each way as one uint32: the line's address with
// its offset bits cleared, and the line's state in the two low bits, which a
// line of at least 4 bytes leaves free. An invalid way is 0.
const (
	wayValid = 1
	wayDirty = 2
)

// cache is one set-associative level with true LRU replacement. ways holds
// one word per way, set after set: set s occupies ways[s*assoc : (s+1)*assoc].
// order holds one recency word per set: the set's way indices as 4-bit
// nibbles, the most recently used in the low nibble and the least recently
// used in nibble assoc-1. A fresh set lists way 0 as least recent, then way
// 1, and so on, so its ways fill in index order; a way that was never filled
// is never touched and stays behind every filled one.
type cache struct {
	cfg       LevelConfig
	lineShift uint
	lruShift  uint // 4*(assoc-1): the least recently used nibble
	setMask   uint32
	offMask   uint32
	ways      []uint32
	order     []uint64
	stats     CacheStats
}

// newCache builds a level from a validated configuration.
func newCache(cfg LevelConfig) cache {
	c := cache{
		cfg:      cfg,
		lruShift: uint(4 * (cfg.Assoc - 1)),
		setMask:  uint32(cfg.Sets() - 1),
		offMask:  uint32(cfg.LineBytes - 1),
		ways:     make([]uint32, cfg.Lines()),
		order:    make([]uint64, cfg.Sets()),
	}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	var fresh uint64
	for w := 0; w < cfg.Assoc; w++ {
		fresh = fresh<<4 | uint64(w)
	}
	for i := range c.order {
		c.order[i] = fresh
	}
	return c
}

// set returns the index of addr's set and its ways.
func (c *cache) set(addr uint32) (uint32, []uint32) {
	s := (addr >> c.lineShift) & c.setMask
	ways := c.cfg.Assoc
	i := int(s) * ways
	return s, c.ways[i : i+ways : i+ways]
}

// present reports whether addr's line is resident, changing no state.
func (c *cache) present(addr uint32) bool {
	key := addr&^c.offMask | wayValid
	_, ways := c.set(addr)
	for _, w := range ways {
		if w&^wayDirty == key {
			return true
		}
	}
	return false
}

// access looks up addr's line and reports whether it hit. A hit makes the
// line the most recently used and, on a write, marks it dirty. A miss fills
// the least recently used way with the line, dirty on a write
// (write-allocate), and counts a writeback when the evicted line was dirty.
// advance marks speculative accesses for the statistics.
//
// The walk goes from the most to the least recently used way, so a hit on
// the most recent way returns without rewriting the recency word.
func (c *cache) access(addr uint32, write, advance bool) bool {
	c.stats.Accesses++
	if advance {
		c.stats.AdvanceAccesses++
	}
	key := addr&^c.offMask | wayValid
	s, ways := c.set(addr)
	order := c.order[s]
	o := order
	for p := uint(0); p < uint(len(ways)); p++ {
		w := o & 0xf
		if ways[w]&^wayDirty == key {
			if write {
				ways[w] |= wayDirty
			}
			if p > 0 {
				c.order[s] = promote(order, p, w)
			}
			return true
		}
		o >>= 4
	}
	c.stats.Misses++
	if advance {
		c.stats.AdvanceMisses++
	}
	victim := order >> c.lruShift & 0xf
	if ways[victim]&wayDirty != 0 {
		c.stats.Writebacks++
	}
	if write {
		key |= wayDirty
	}
	ways[victim] = key
	c.order[s] = promote(order, uint(len(ways))-1, victim)
	return false
}

// promote moves way w from position p of a recency word to the most recent
// position, shifting the ways that were more recent one position older.
func promote(order uint64, p uint, w uint64) uint64 {
	newer := uint64(1)<<(4*p) - 1     // positions 0 .. p-1
	through := uint64(1)<<(4*p+4) - 1 // positions 0 .. p; all ones when p is 15
	return order&^through | (order&newer)<<4 | w
}
