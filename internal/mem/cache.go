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

type line struct {
	tag   uint32
	valid bool
	dirty bool
	use   uint64 // LRU timestamp
}

// cache is one set-associative level. Its lines are one flat array, set
// after set: set s occupies lines[s*assoc : (s+1)*assoc].
type cache struct {
	cfg       LevelConfig
	lineShift uint
	setMask   uint32
	lines     []line
	useClock  uint64
	stats     CacheStats
}

func newCache(cfg LevelConfig) (*cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &cache{cfg: cfg, lines: make([]line, cfg.Lines())}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	c.setMask = uint32(cfg.Sets() - 1)
	return c, nil
}

// set returns the ways of addr's set.
func (c *cache) set(addr uint32) []line {
	ways := c.cfg.Assoc
	i := int((addr>>c.lineShift)&c.setMask) * ways
	return c.lines[i : i+ways : i+ways]
}

func (c *cache) tag(addr uint32) uint32 {
	return addr >> c.lineShift
}

// lookup probes for addr's line, updating LRU on hit (and the dirty bit on
// write hits). advance marks speculative accesses for the statistics.
func (c *cache) lookup(addr uint32, advance bool) bool {
	return c.lookupW(addr, false, advance)
}

func (c *cache) lookupW(addr uint32, write, advance bool) bool {
	c.useClock++
	c.stats.Accesses++
	if advance {
		c.stats.AdvanceAccesses++
	}
	tag := c.tag(addr)
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.use = c.useClock
			if write {
				l.dirty = true
			}
			return true
		}
	}
	c.stats.Misses++
	if advance {
		c.stats.AdvanceMisses++
	}
	return false
}

// install fills addr's line, evicting the LRU way if needed; write marks
// the incoming line dirty (write-allocate). Evicting a dirty line counts a
// writeback.
func (c *cache) install(addr uint32, write bool) {
	c.useClock++
	tag := c.tag(addr)
	set := c.set(addr)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].use = c.useClock
			if write {
				set[i].dirty = true
			}
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].use < set[victim].use {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, use: c.useClock}
}

// reset invalidates all lines and clears statistics.
func (c *cache) reset() {
	clear(c.lines)
	c.useClock = 0
	c.stats = CacheStats{}
}
