package mem

import "fmt"

// HierConfig describes the whole hierarchy.
type HierConfig struct {
	L1I LevelConfig
	L1D LevelConfig
	L2  LevelConfig
	L3  LevelConfig
	// MemLatency is the total latency of an access satisfied by main memory.
	MemLatency int
	// MaxMisses is the number of MSHRs: the maximum number of data-side
	// misses outstanding at once (Table 2: 16).
	MaxMisses int
}

// BaseConfig returns the paper's Table 2 hierarchy: 16KB 4-way 64B 1-cycle
// L1s, 256KB 8-way 128B 5-cycle L2, 3MB 12-way 128B 12-cycle L3, 145-cycle
// main memory, 16 outstanding misses.
func BaseConfig() HierConfig {
	return HierConfig{
		L1I:        LevelConfig{Name: "L1I", SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, Latency: 1},
		L1D:        LevelConfig{Name: "L1D", SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, Latency: 1},
		L2:         LevelConfig{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 128, Latency: 5},
		L3:         LevelConfig{Name: "L3", SizeBytes: 3 << 20, Assoc: 12, LineBytes: 128, Latency: 12},
		MemLatency: 145,
		MaxMisses:  16,
	}
}

// Config1 returns Figure 7's "config1": the base hierarchy with 200-cycle
// main memory.
func Config1() HierConfig {
	c := BaseConfig()
	c.MemLatency = 200
	return c
}

// Config2 returns Figure 7's "config2": 8KB 1-cycle L1s, 128KB 7-cycle L2,
// 1.5MB 16-cycle L3, 200-cycle main memory.
func Config2() HierConfig {
	c := BaseConfig()
	c.L1I.SizeBytes = 8 << 10
	c.L1D.SizeBytes = 8 << 10
	c.L2.SizeBytes = 128 << 10
	c.L2.Latency = 7
	c.L3.SizeBytes = 1536 << 10
	c.L3.Latency = 16
	c.MemLatency = 200
	return c
}

// ConfigByName returns the evaluation's named hierarchy configurations
// ("base", "config1", "config2" — Table 2 and Figure 7).
func ConfigByName(name string) (HierConfig, bool) {
	switch name {
	case "base":
		return BaseConfig(), true
	case "config1":
		return Config1(), true
	case "config2":
		return Config2(), true
	}
	return HierConfig{}, false
}

// ConfigNames lists the named hierarchies in presentation order.
func ConfigNames() []string { return []string{"base", "config1", "config2"} }

// ConfigDescription returns a one-line description of a named hierarchy for
// API enumeration, or "" for unknown names.
func ConfigDescription(name string) string {
	switch name {
	case "base":
		return "Table 2: 16KB 1-cycle L1s, 256KB 5-cycle L2, 3MB 12-cycle L3, 145-cycle memory"
	case "config1":
		return "Figure 7 config1: base hierarchy with 200-cycle main memory"
	case "config2":
		return "Figure 7 config2: 8KB L1s, 128KB 7-cycle L2, 1.5MB 16-cycle L3, 200-cycle memory"
	}
	return ""
}

// mshr is one miss-status holding register: the L2-line-aligned address of
// an ongoing fill and the cycle it completes. A slot whose ready cycle has
// passed is free.
type mshr struct {
	addr  uint32
	ready uint64
}

// Hierarchy is the timing model of the full cache system.
type Hierarchy struct {
	cfg HierConfig
	l1i cache
	l1d cache
	l2  cache
	l3  cache
	// inflight is the MSHR file: exactly MaxMisses slots (Table 2: 16),
	// implementing both occupancy and miss merging. The architectural bound
	// makes a linear scan cheaper than any map, and the structure is
	// allocation-free.
	inflight []mshr
	// instFill is the most recent instruction-side fill. The front end has
	// its own port (AccessInst consumes no data MSHR) and fetches lines
	// serially, so a single slot covers every in-flight inst fill; it exists
	// so NextEvent can see instruction misses as wake-up events too.
	instFill mshr
	// mshrStalls counts accesses that had to wait for a free MSHR.
	mshrStalls uint64
}

// Validate reports the first problem that makes cfg unusable: a level whose
// geometry is invalid, a main memory latency below one cycle, or no MSHRs.
func (cfg HierConfig) Validate() error {
	if cfg.MemLatency < 1 {
		return fmt.Errorf("mem: main memory latency %d < 1", cfg.MemLatency)
	}
	if cfg.MaxMisses < 1 {
		return fmt.Errorf("mem: MaxMisses %d < 1", cfg.MaxMisses)
	}
	for _, l := range [...]LevelConfig{cfg.L1I, cfg.L1D, cfg.L2, cfg.L3} {
		if err := l.validate(); err != nil {
			return err
		}
	}
	return nil
}

// NewHierarchy builds a hierarchy, or returns Validate's error.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{
		cfg:      cfg,
		l1i:      newCache(cfg.L1I),
		l1d:      newCache(cfg.L1D),
		l2:       newCache(cfg.L2),
		l3:       newCache(cfg.L3),
		inflight: make([]mshr, cfg.MaxMisses),
	}, nil
}

// MustNewHierarchy is NewHierarchy for known-good configurations.
func MustNewHierarchy(cfg HierConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// mergeAddr aligns addr to the largest line granularity for miss merging.
func (h *Hierarchy) mergeAddr(addr uint32) uint32 {
	return addr &^ uint32(h.cfg.L2.LineBytes-1)
}

// outstanding counts fills still in flight at cycle now. Slots whose fills
// have completed are implicitly free (no purge needed).
func (h *Hierarchy) outstanding(now uint64) int {
	n := 0
	for i := range h.inflight {
		if h.inflight[i].ready > now {
			n++
		}
	}
	return n
}

// earliestCompletion returns the soonest completion among in-flight fills;
// callers must ensure at least one is in flight.
func (h *Hierarchy) earliestCompletion(now uint64) uint64 {
	var best uint64
	first := true
	for i := range h.inflight {
		if ready := h.inflight[i].ready; ready > now && (first || ready < best) {
			best = ready
			first = false
		}
	}
	if first {
		return now
	}
	return best
}

// NextEvent returns the earliest cycle strictly after now at which any
// in-flight fill completes — data-side MSHR fills plus the instruction-side
// fill — or 0 when nothing is in flight. This is the wake-up target for
// event-driven stall skipping: a cycle loop that has proven no instruction
// can make progress before the next memory completion may jump its clock
// straight to this cycle instead of ticking through the stall. All fills in
// this hierarchy are fixed-latency (the completion cycle is decided when the
// miss issues and never moves), so the value returned for a given fill is
// stable until that fill completes.
func (h *Hierarchy) NextEvent(now uint64) uint64 {
	var best uint64
	for i := range h.inflight {
		if r := h.inflight[i].ready; r > now && (best == 0 || r < best) {
			best = r
		}
	}
	if r := h.instFill.ready; r > now && (best == 0 || r < best) {
		best = r
	}
	return best
}

// fillFor returns the completion cycle of an ongoing fill of addr's merge
// line, or 0 when none is in flight at cycle now.
func (h *Hierarchy) fillFor(addr uint32, now uint64) uint64 {
	for i := range h.inflight {
		if h.inflight[i].addr == addr && h.inflight[i].ready > now {
			return h.inflight[i].ready
		}
	}
	return 0
}

// startFill claims a free MSHR for a fill of line addr completing at ready.
// The caller has already bounded occupancy below MaxMisses, so a free slot
// always exists.
func (h *Hierarchy) startFill(addr uint32, now, ready uint64) {
	for i := range h.inflight {
		if h.inflight[i].ready <= now {
			h.inflight[i] = mshr{addr: addr, ready: ready}
			return
		}
	}
	panic("mem: no free MSHR despite occupancy bound")
}

// AccessData performs a data-side access at cycle now and returns the cycle
// the data is available. write distinguishes stores (which still allocate
// and consume MSHRs on miss but whose completion the pipeline does not wait
// for); advance marks speculative pre-execution for statistics.
func (h *Hierarchy) AccessData(addr uint32, now uint64, write, advance bool) uint64 {
	// A line already in flight merges with the ongoing fill regardless of
	// which level it would otherwise hit: the first requester pays the MSHR,
	// later ones share the completion.
	if ready := h.fillFor(h.mergeAddr(addr), now); ready != 0 {
		// Keep LRU state warm.
		h.l1d.access(addr, write, advance)
		return ready
	}

	if h.l1d.access(addr, write, advance) {
		return now + uint64(h.cfg.L1D.Latency)
	}

	// L1 miss: an MSHR is required. If all are busy, the request waits for
	// the earliest completion.
	issueAt := now
	for h.outstanding(issueAt) >= h.cfg.MaxMisses {
		h.mshrStalls++
		issueAt = h.earliestCompletion(issueAt)
	}

	// Each level below fills the line as it misses.
	var ready uint64
	switch {
	case h.l2.access(addr, false, advance):
		ready = issueAt + uint64(h.cfg.L2.Latency)
	case h.l3.access(addr, false, advance):
		ready = issueAt + uint64(h.cfg.L3.Latency)
	default:
		ready = issueAt + uint64(h.cfg.MemLatency)
	}
	h.startFill(h.mergeAddr(addr), issueAt, ready)
	return ready
}

// Probe reports the level at which addr currently hits (1, 2, 3) or 4 for
// main memory, without perturbing any state. Used by tests and by the
// multipass WAW rule of paper §3.5 (advance loads that miss L1 skip the SRF
// write-back).
func (h *Hierarchy) Probe(addr uint32) int {
	switch {
	case h.l1d.present(addr):
		return 1
	case h.l2.present(addr):
		return 2
	case h.l3.present(addr):
		return 3
	}
	return 4
}

// InFlight reports whether addr's line is still being filled at cycle now.
func (h *Hierarchy) InFlight(addr uint32, now uint64) bool {
	return h.fillFor(h.mergeAddr(addr), now) != 0
}

// AccessInst performs an instruction-side access at cycle now. Instruction
// fetches do not consume data MSHRs (the front end has its own port) but do
// share L2/L3 content.
func (h *Hierarchy) AccessInst(addr uint32, now uint64) uint64 {
	if h.l1i.access(addr, false, false) {
		return now + uint64(h.cfg.L1I.Latency)
	}
	var ready uint64
	switch {
	case h.l2.access(addr, false, false):
		ready = now + uint64(h.cfg.L2.Latency)
	case h.l3.access(addr, false, false):
		ready = now + uint64(h.cfg.L3.Latency)
	default:
		ready = now + uint64(h.cfg.MemLatency)
	}
	h.instFill = mshr{addr: addr, ready: ready}
	return ready
}

// HierStats is a snapshot of all level statistics.
type HierStats struct {
	L1I        CacheStats `json:"l1i"`
	L1D        CacheStats `json:"l1d"`
	L2         CacheStats `json:"l2"`
	L3         CacheStats `json:"l3"`
	MSHRStalls uint64     `json:"mshr_stalls"`
}

// Add accumulates o into s fieldwise; Sub removes it.
func (s *HierStats) Add(o HierStats) {
	s.L1I.Add(o.L1I)
	s.L1D.Add(o.L1D)
	s.L2.Add(o.L2)
	s.L3.Add(o.L3)
	s.MSHRStalls += o.MSHRStalls
}

// Sub removes o from s fieldwise.
func (s *HierStats) Sub(o HierStats) {
	s.L1I.Sub(o.L1I)
	s.L1D.Sub(o.L1D)
	s.L2.Sub(o.L2)
	s.L3.Sub(o.L3)
	s.MSHRStalls -= o.MSHRStalls
}

// Stats returns a snapshot of the hierarchy's counters.
func (h *Hierarchy) Stats() HierStats {
	return HierStats{
		L1I:        h.l1i.stats,
		L1D:        h.l1d.stats,
		L2:         h.l2.stats,
		L3:         h.l3.stats,
		MSHRStalls: h.mshrStalls,
	}
}
