package mem

import (
	"strings"
	"testing"
)

func TestLevelConfigValidate(t *testing.T) {
	good := BaseConfig().L1D
	if err := good.validate(); err != nil {
		t.Errorf("base L1D invalid: %v", err)
	}
	// The widest and finest geometry the packed way and recency words hold.
	if err := edgeConfig().L1D.validate(); err != nil {
		t.Errorf("16-way level of 4-byte lines invalid: %v", err)
	}
	bad := []LevelConfig{
		{Name: "x", SizeBytes: 0, Assoc: 4, LineBytes: 64, Latency: 1},
		{Name: "x", SizeBytes: 16384, Assoc: 4, LineBytes: 60, Latency: 1},    // non-pow2 line
		{Name: "x", SizeBytes: 16384, Assoc: 5, LineBytes: 64, Latency: 1},    // non-pow2 sets
		{Name: "x", SizeBytes: 16384, Assoc: 4, LineBytes: 64, Latency: 0},    // zero latency
		{Name: "x", SizeBytes: 10000, Assoc: 4, LineBytes: 64, Latency: 1},    // indivisible
		{Name: "wide", SizeBytes: 8192, Assoc: 32, LineBytes: 64, Latency: 1}, // more than 16 ways
		{Name: "tiny", SizeBytes: 16384, Assoc: 4, LineBytes: 2, Latency: 1},  // no room for the state bits
		{Name: "byte", SizeBytes: 16384, Assoc: 16, LineBytes: 1, Latency: 1}, // no room for the state bits
	}
	for i, c := range bad {
		err := c.validate()
		if err == nil {
			t.Errorf("bad config %d accepted", i)
		} else if !strings.Contains(err.Error(), c.Name+":") {
			t.Errorf("bad config %d: error %q does not name level %q", i, err, c.Name)
		}
	}
	if got := good.Lines(); got != 256 {
		t.Errorf("L1D lines = %d, want 256", got)
	}
	if got := good.Sets(); got != 64 {
		t.Errorf("L1D sets = %d, want 64", got)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())

	// Cold access: main memory latency.
	if ready := h.AccessData(0x1000, 100, false, false); ready != 100+145 {
		t.Errorf("cold access ready at %d, want 245", ready)
	}
	// Same line after fill completes: L1 hit.
	if ready := h.AccessData(0x1004, 300, false, false); ready != 301 {
		t.Errorf("warm L1 access ready at %d, want 301", ready)
	}
	// Line still in flight: merged with outstanding fill.
	h = MustNewHierarchy(BaseConfig())
	first := h.AccessData(0x2000, 0, false, false)
	if first != 145 {
		t.Fatalf("first = %d", first)
	}
	if merged := h.AccessData(0x2004, 10, false, false); merged != first {
		t.Errorf("merged access ready at %d, want %d", merged, first)
	}
}

func TestHierarchyL2L3Hits(t *testing.T) {
	cfg := BaseConfig()
	h := MustNewHierarchy(cfg)
	// Fill a line, then evict it from L1 by filling its whole L1 set (4-way,
	// 64 sets, 64B lines: same set every 64*64 = 4096 bytes).
	h.AccessData(0x0, 0, false, false)
	for i := 1; i <= 4; i++ {
		h.AccessData(uint32(i*4096), 1000*uint64(i), false, false)
	}
	// 0x0 now misses L1 but hits L2.
	ready := h.AccessData(0x0, 100000, false, false)
	if got := ready - 100000; got != uint64(cfg.L2.Latency) {
		t.Errorf("L2 hit latency = %d, want %d", got, cfg.L2.Latency)
	}
}

func TestMSHRLimit(t *testing.T) {
	cfg := BaseConfig()
	cfg.MaxMisses = 2
	h := MustNewHierarchy(cfg)
	// Three distinct-line misses at cycle 0; the third must wait for an MSHR.
	r1 := h.AccessData(0x10000, 0, false, false)
	r2 := h.AccessData(0x20000, 0, false, false)
	r3 := h.AccessData(0x30000, 0, false, false)
	if r1 != 145 || r2 != 145 {
		t.Fatalf("r1, r2 = %d, %d", r1, r2)
	}
	if r3 != 145+145 {
		t.Errorf("r3 = %d, want 290 (waits for MSHR)", r3)
	}
	if h.Stats().MSHRStalls == 0 {
		t.Error("MSHR stall not counted")
	}
}

// TestMSHRStallKeepsFillVisible pins the MSHR file's answer where the
// file of fixed slots and the map of in-flight lines it replaced disagree
// (DESIGN.md §6). A miss that waits for an MSHR computes its issue cycle
// from completions in the future; the map purged every fill completing by
// then, so an access to such a line before its fill lands no longer merged
// and hit L1 at once, and a new miss found an MSHR free. The slot file
// keeps every fill visible until it completes, except the one slot the
// waiting miss claims.
func TestMSHRStallKeepsFillVisible(t *testing.T) {
	cfg := BaseConfig()
	cfg.MaxMisses = 2
	h := MustNewHierarchy(cfg)
	if r1, r2 := h.AccessData(0x10000, 0, false, false), h.AccessData(0x20000, 0, false, false); r1 != 145 || r2 != 145 {
		t.Fatalf("two cold misses ready at %d, %d, want 145", r1, r2)
	}
	if r3 := h.AccessData(0x30000, 10, false, false); r3 != 145+145 {
		t.Fatalf("third miss ready at %d, want 290 (waits for an MSHR until 145)", r3)
	}
	// 0x20000's fill is still in flight at cycle 20: merge with it (the map
	// returned 21 here).
	if r := h.AccessData(0x20004, 20, false, false); r != 145 {
		t.Errorf("access to a line in flight ready at %d, want 145", r)
	}
	// Both MSHRs are busy at cycle 20, so a new miss waits until 145 (the
	// map counted one and issued it at once: three misses in flight on two
	// MSHRs, ready at 165).
	if r := h.AccessData(0x40000, 20, false, false); r != 145+145 {
		t.Errorf("miss with both MSHRs busy ready at %d, want 290", r)
	}
	// The waiting misses took the slots of fills still in flight, so
	// 0x10000's fill is no longer visible and its line hits L1, as it did
	// with the map.
	if r := h.AccessData(0x10004, 30, false, false); r != 31 {
		t.Errorf("access to the line whose slot was claimed ready at %d, want 31", r)
	}
}

func TestMissMergingDoesNotConsumeMSHR(t *testing.T) {
	cfg := BaseConfig()
	cfg.MaxMisses = 1
	h := MustNewHierarchy(cfg)
	r1 := h.AccessData(0x40000, 0, false, false)
	// Same L2 line (128B): merges, no MSHR wait.
	r2 := h.AccessData(0x40040, 5, false, false)
	if r2 != r1 {
		t.Errorf("merge: r2 = %d, want %d", r2, r1)
	}
}

func TestProbeLevels(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	if lvl := h.Probe(0x5000); lvl != 4 {
		t.Errorf("cold probe = %d, want 4", lvl)
	}
	h.AccessData(0x5000, 0, false, false)
	if lvl := h.Probe(0x5000); lvl != 1 {
		t.Errorf("after access probe = %d, want 1", lvl)
	}
	// Probe must not perturb state (repeat).
	if lvl := h.Probe(0x5000); lvl != 1 {
		t.Errorf("second probe = %d", lvl)
	}
}

func TestInFlight(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	h.AccessData(0x6000, 0, false, false)
	if !h.InFlight(0x6000, 10) {
		t.Error("line should be in flight at cycle 10")
	}
	if h.InFlight(0x6000, 200) {
		t.Error("line should have arrived by cycle 200")
	}
	if h.InFlight(0x7000, 10) {
		t.Error("untouched line in flight")
	}
}

func TestAdvanceStats(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	h.AccessData(0x8000, 0, false, true)
	h.AccessData(0x9000, 0, false, false)
	s := h.Stats()
	if s.L1D.AdvanceAccesses != 1 || s.L1D.AdvanceMisses != 1 {
		t.Errorf("advance stats = %+v", s.L1D)
	}
	if s.L1D.Accesses != 2 || s.L1D.Misses != 2 {
		t.Errorf("total stats = %+v", s.L1D)
	}
	if got := s.L1D.MissRate(); got != 1.0 {
		t.Errorf("miss rate = %v", got)
	}
	if (CacheStats{}).MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
}

func TestInstAccessSeparateFromData(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	r := h.AccessInst(0x100, 0)
	if r != 145 {
		t.Errorf("cold inst fetch = %d, want 145", r)
	}
	if got := h.AccessInst(0x104, 200); got != 201 {
		t.Errorf("warm inst fetch = %d, want 201", got)
	}
	s := h.Stats()
	if s.L1I.Accesses != 2 || s.L1D.Accesses != 0 {
		t.Errorf("inst access counted wrong: %+v", s)
	}
	// Instruction line is resident in L2 too; a data access to the same
	// address hits L2, not memory.
	if got := h.AccessData(0x100, 300, false, false); got != 305 {
		t.Errorf("data access to inst line = %d, want 305 (L2 hit)", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	// Fill one L1 set (4 ways, stride 4096) then touch way 0 again to make
	// way 1 the LRU victim.
	addrs := []uint32{0, 4096, 8192, 12288}
	for i, a := range addrs {
		h.AccessData(a, uint64(1000*i), false, false)
	}
	h.AccessData(0, 50000, false, false)     // refresh way holding 0
	h.AccessData(16384, 60000, false, false) // evicts LRU: 4096
	if h.Probe(0) != 1 {
		t.Error("recently used line evicted")
	}
	if h.Probe(4096) == 1 {
		t.Error("LRU line not evicted")
	}
}

func TestConfigVariants(t *testing.T) {
	if BaseConfig().MemLatency != 145 {
		t.Error("base mem latency")
	}
	c1 := Config1()
	if c1.MemLatency != 200 || c1.L1D.SizeBytes != 16<<10 {
		t.Error("config1 wrong")
	}
	c2 := Config2()
	if c2.L1D.SizeBytes != 8<<10 || c2.L2.Latency != 7 || c2.L3.SizeBytes != 1536<<10 || c2.MemLatency != 200 {
		t.Error("config2 wrong")
	}
	if _, err := NewHierarchy(c2); err != nil {
		t.Errorf("config2 rejected: %v", err)
	}
	bad := BaseConfig()
	bad.MaxMisses = 0
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("zero MSHRs accepted")
	}
	bad2 := BaseConfig()
	bad2.MemLatency = 0
	if _, err := NewHierarchy(bad2); err == nil {
		t.Error("zero memory latency accepted")
	}
}

// TestConfigByName pins the name -> hierarchy lookup used by the HTTP layer
// and cmd tools: every advertised name resolves to the expected latency
// profile, and anything else (including case or whitespace variants) is
// rejected with a zero config rather than silently falling back to base.
func TestConfigByName(t *testing.T) {
	cases := []struct {
		name       string
		ok         bool
		memLatency int // checked only when ok
	}{
		{"base", true, 145},
		{"config1", true, 200},
		{"config2", true, 200},
		{"", false, 0},
		{"Base", false, 0},
		{"CONFIG1", false, 0},
		{"base ", false, 0},
		{"config3", false, 0},
		{"l2-only", false, 0},
	}
	for _, tc := range cases {
		cfg, ok := ConfigByName(tc.name)
		if ok != tc.ok {
			t.Errorf("ConfigByName(%q) ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if tc.ok && cfg.MemLatency != tc.memLatency {
			t.Errorf("ConfigByName(%q).MemLatency = %d, want %d", tc.name, cfg.MemLatency, tc.memLatency)
		}
		if !tc.ok && cfg != (HierConfig{}) {
			t.Errorf("ConfigByName(%q) returned non-zero config %+v for unknown name", tc.name, cfg)
		}
	}
	// Every name ConfigNames advertises must resolve.
	for _, name := range ConfigNames() {
		if _, ok := ConfigByName(name); !ok {
			t.Errorf("advertised hierarchy %q does not resolve", name)
		}
	}
}

func TestWritebackCounting(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	// Dirty a line, then evict it from L1 by filling its set (4-way, set
	// stride 4096).
	h.AccessData(0x0, 0, true, false) // store: write-allocate dirty
	for i := 1; i <= 4; i++ {
		h.AccessData(uint32(i*4096), uint64(1000*i), false, false)
	}
	if wb := h.Stats().L1D.Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
	// Clean evictions do not count.
	h2 := MustNewHierarchy(BaseConfig())
	for i := 0; i <= 4; i++ {
		h2.AccessData(uint32(i*4096), uint64(1000*i), false, false)
	}
	if wb := h2.Stats().L1D.Writebacks; wb != 0 {
		t.Errorf("clean evictions counted as writebacks: %d", wb)
	}
}
