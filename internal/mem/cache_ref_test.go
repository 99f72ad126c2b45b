package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The reference model is the timestamp cache that the packed levels
// replaced: each line keeps its tag, valid and dirty bits and a 64-bit LRU
// timestamp, a lookup walks the set, and a miss walks it again to install.
// TestCacheDifferential and FuzzCacheDifferential hold the packed hierarchy
// to it call for call.

type refLine struct {
	tag   uint32
	valid bool
	dirty bool
	use   uint64 // LRU timestamp
}

type refCache struct {
	cfg       LevelConfig
	lineShift uint
	setMask   uint32
	lines     []refLine
	useClock  uint64
	stats     CacheStats
}

func newRefCache(cfg LevelConfig) *refCache {
	c := &refCache{cfg: cfg, lines: make([]refLine, cfg.Lines())}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	c.setMask = uint32(cfg.Sets() - 1)
	return c
}

func (c *refCache) set(addr uint32) []refLine {
	ways := c.cfg.Assoc
	i := int((addr>>c.lineShift)&c.setMask) * ways
	return c.lines[i : i+ways : i+ways]
}

func (c *refCache) tag(addr uint32) uint32 { return addr >> c.lineShift }

func (c *refCache) present(addr uint32) bool {
	tag := c.tag(addr)
	for _, l := range c.set(addr) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) lookup(addr uint32, advance bool) bool {
	return c.lookupW(addr, false, advance)
}

// lookupW probes for addr's line, refreshing its timestamp on a hit and
// marking it dirty on a write hit.
func (c *refCache) lookupW(addr uint32, write, advance bool) bool {
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

// install fills addr's line into the first invalid way or over the way with
// the oldest timestamp, counting a writeback when the victim was dirty.
func (c *refCache) install(addr uint32, write bool) {
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
	set[victim] = refLine{tag: tag, valid: true, dirty: write, use: c.useClock}
}

// refHierarchy calls the reference caches in the timestamp design's
// lookup-then-install pattern. Its MSHR file scans every slot on every call,
// with none of the hierarchy's shortcuts.
type refHierarchy struct {
	cfg              HierConfig
	l1i, l1d, l2, l3 *refCache
	inflight         []mshr
	instFill         mshr
	mshrStalls       uint64
}

func newRefHierarchy(cfg HierConfig) *refHierarchy {
	return &refHierarchy{
		cfg:      cfg,
		l1i:      newRefCache(cfg.L1I),
		l1d:      newRefCache(cfg.L1D),
		l2:       newRefCache(cfg.L2),
		l3:       newRefCache(cfg.L3),
		inflight: make([]mshr, cfg.MaxMisses),
	}
}

func (r *refHierarchy) mergeAddr(addr uint32) uint32 {
	return addr &^ uint32(r.cfg.L2.LineBytes-1)
}

func (r *refHierarchy) fillFor(addr uint32, now uint64) uint64 {
	for _, m := range r.inflight {
		if m.addr == addr && m.ready > now {
			return m.ready
		}
	}
	return 0
}

func (r *refHierarchy) outstanding(now uint64) int {
	n := 0
	for _, m := range r.inflight {
		if m.ready > now {
			n++
		}
	}
	return n
}

func (r *refHierarchy) earliestCompletion(now uint64) uint64 {
	best := now
	for _, m := range r.inflight {
		if m.ready > now && (best == now || m.ready < best) {
			best = m.ready
		}
	}
	return best
}

func (r *refHierarchy) startFill(addr uint32, now, ready uint64) {
	for i, m := range r.inflight {
		if m.ready <= now {
			r.inflight[i] = mshr{addr: addr, ready: ready}
			return
		}
	}
	panic("no free MSHR")
}

func (r *refHierarchy) NextEvent(now uint64) uint64 {
	var best uint64
	for _, m := range slices.Concat(r.inflight, []mshr{r.instFill}) {
		if m.ready > now && (best == 0 || m.ready < best) {
			best = m.ready
		}
	}
	return best
}

func (r *refHierarchy) AccessData(addr uint32, now uint64, write, advance bool) uint64 {
	if ready := r.fillFor(r.mergeAddr(addr), now); ready != 0 {
		r.l1d.lookupW(addr, write, advance)
		r.l1d.install(addr, write)
		return ready
	}
	if r.l1d.lookupW(addr, write, advance) {
		return now + uint64(r.cfg.L1D.Latency)
	}
	issueAt := now
	for r.outstanding(issueAt) >= r.cfg.MaxMisses {
		r.mshrStalls++
		issueAt = r.earliestCompletion(issueAt)
	}
	var ready uint64
	switch {
	case r.l2.lookup(addr, advance):
		ready = issueAt + uint64(r.cfg.L2.Latency)
	case r.l3.lookup(addr, advance):
		ready = issueAt + uint64(r.cfg.L3.Latency)
	default:
		r.l3.install(addr, false)
		ready = issueAt + uint64(r.cfg.MemLatency)
	}
	r.l2.install(addr, false)
	r.l1d.install(addr, write)
	r.startFill(r.mergeAddr(addr), issueAt, ready)
	return ready
}

func (r *refHierarchy) AccessInst(addr uint32, now uint64) uint64 {
	if r.l1i.lookup(addr, false) {
		return now + uint64(r.cfg.L1I.Latency)
	}
	var ready uint64
	switch {
	case r.l2.lookup(addr, false):
		ready = now + uint64(r.cfg.L2.Latency)
	case r.l3.lookup(addr, false):
		ready = now + uint64(r.cfg.L3.Latency)
	default:
		r.l3.install(addr, false)
		ready = now + uint64(r.cfg.MemLatency)
	}
	r.l2.install(addr, false)
	r.l1i.install(addr, false)
	r.instFill = mshr{addr: addr, ready: ready}
	return ready
}

func (r *refHierarchy) WarmData(addr uint32, write bool) {
	if r.l1d.lookupW(addr, write, false) {
		return
	}
	switch {
	case r.l2.lookup(addr, false):
	case r.l3.lookup(addr, false):
	default:
		r.l3.install(addr, false)
	}
	r.l2.install(addr, false)
	r.l1d.install(addr, write)
}

func (r *refHierarchy) WarmInst(addr uint32) {
	if r.l1i.lookup(addr, false) {
		return
	}
	switch {
	case r.l2.lookup(addr, false):
	case r.l3.lookup(addr, false):
	default:
		r.l3.install(addr, false)
	}
	r.l2.install(addr, false)
	r.l1i.install(addr, false)
}

func (r *refHierarchy) Probe(addr uint32) int {
	switch {
	case r.l1d.present(addr):
		return 1
	case r.l2.present(addr):
		return 2
	case r.l3.present(addr):
		return 3
	}
	return 4
}

func (r *refHierarchy) Stats() HierStats {
	return HierStats{
		L1I:        r.l1i.stats,
		L1D:        r.l1d.stats,
		L2:         r.l2.stats,
		L3:         r.l3.stats,
		MSHRStalls: r.mshrStalls,
	}
}

// restoredFrom returns a fresh reference hierarchy holding r's lines and
// timestamps, as RestoreWarm(CaptureWarm()) does for the packed one.
func (r *refHierarchy) restoredFrom() *refHierarchy {
	n := newRefHierarchy(r.cfg)
	for _, p := range [][2]*refCache{{n.l1i, r.l1i}, {n.l1d, r.l1d}, {n.l2, r.l2}, {n.l3, r.l3}} {
		p[0].lines = slices.Clone(p[1].lines)
		p[0].useClock = p[1].useClock
	}
	return n
}

// Kinds of call in a differential stream.
const (
	opData = iota
	opInst
	opWarmData
	opWarmInst
)

// cacheOp is one hierarchy call: dt cycles after the previous one, at addr.
type cacheOp struct {
	kind           int
	addr           uint32
	dt             uint64
	write, advance bool
}

func (o cacheOp) String() string {
	return fmt.Sprintf("{kind %d addr %#x dt %d write %v advance %v}", o.kind, o.addr, o.dt, o.write, o.advance)
}

// genCacheStream returns n seeded calls that mix data reads and writes,
// advance accesses, instruction fetches and warming. About a third of the
// addresses map to a few sets of every level at once, more lines than any
// level has ways, so those sets keep evicting; the clock mostly stands still
// or creeps, so misses queue for MSHRs and merge with fills in flight.
func genCacheStream(rng *rand.Rand, cfg HierConfig, n int) []cacheOp {
	// One stride that returns to the same set at every level.
	stride := uint32(0)
	for _, l := range []LevelConfig{cfg.L1I, cfg.L1D, cfg.L2, cfg.L3} {
		stride = max(stride, uint32(l.Sets()*l.LineBytes))
	}
	maxWays := max(cfg.L1D.Assoc, cfg.L2.Assoc, cfg.L3.Assoc)
	conflictBases := []uint32{0x0040_0000, 0x0040_0000 + uint32(cfg.L2.LineBytes), 0x0100_0000 + 3*uint32(cfg.L1D.LineBytes)}
	ops := make([]cacheOp, n)
	for i := range ops {
		var addr uint32
		switch r := rng.Intn(100); {
		case r < 35: // same-set conflicts
			base := conflictBases[rng.Intn(len(conflictBases))]
			addr = base + uint32(rng.Intn(maxWays+6))*stride + uint32(rng.Intn(cfg.L2.LineBytes))
		case r < 65: // a small working set: L1 and L2 hits
			addr = 0x0200_0000 + uint32(rng.Intn(4*cfg.L1D.SizeBytes))
		case r < 85: // far out of cache
			addr = 0x1000_0000 + uint32(rng.Intn(64<<20))
		default: // sequential code
			addr = 0x0000_1000 + uint32(i%512)*4
		}
		op := cacheOp{addr: addr &^ 3}
		switch r := rng.Intn(100); {
		case r < 30:
			op.kind = opData
		case r < 45:
			op.kind, op.write = opData, true
		case r < 55:
			op.kind, op.advance = opData, true
		case r < 60:
			op.kind, op.write, op.advance = opData, true, true
		case r < 75:
			op.kind = opInst
		case r < 92:
			op.kind, op.write = opWarmData, rng.Intn(4) == 0
		default:
			op.kind = opWarmInst
		}
		switch r := rng.Intn(100); {
		case r < 50:
			op.dt = 0
		case r < 85:
			op.dt = uint64(rng.Intn(4))
		case r < 97:
			op.dt = uint64(rng.Intn(64))
		default:
			op.dt = uint64(rng.Intn(1000))
		}
		ops[i] = op
	}
	return ops
}

// edgeConfig is the widest and finest geometry the packed words hold:
// 16-way levels, 4-byte lines at L1, and few MSHRs.
func edgeConfig() HierConfig {
	return HierConfig{
		L1I:        LevelConfig{Name: "L1I", SizeBytes: 1 << 10, Assoc: 16, LineBytes: 4, Latency: 1},
		L1D:        LevelConfig{Name: "L1D", SizeBytes: 1 << 10, Assoc: 16, LineBytes: 4, Latency: 1},
		L2:         LevelConfig{Name: "L2", SizeBytes: 8 << 10, Assoc: 16, LineBytes: 16, Latency: 4},
		L3:         LevelConfig{Name: "L3", SizeBytes: 64 << 10, Assoc: 16, LineBytes: 32, Latency: 9},
		MemLatency: 60,
		MaxMisses:  3,
	}
}

func differentialConfigs() []HierConfig {
	cfgs := make([]HierConfig, 0, 4)
	for _, name := range ConfigNames() {
		cfg, _ := ConfigByName(name)
		cfgs = append(cfgs, cfg)
	}
	return append(cfgs, edgeConfig())
}

// checkCacheDifferential runs ops on a packed and a reference hierarchy and
// fails at the first call whose ready cycle or statistics differ, or whose
// touched lines probe differently. Halfway through, both sides continue on
// fresh hierarchies restored from a capture of their warm state. It returns
// the statistics of the second half.
func checkCacheDifferential(t *testing.T, cfg HierConfig, ops []cacheOp) HierStats {
	t.Helper()
	h, r := MustNewHierarchy(cfg), newRefHierarchy(cfg)
	var touched []uint32
	probeAll := func(when string) {
		t.Helper()
		for _, a := range touched {
			if got, want := h.Probe(a), r.Probe(a); got != want {
				t.Fatalf("%s: Probe(%#x) = %d, reference %d", when, a, got, want)
			}
		}
	}
	var now uint64
	for i, op := range ops {
		if i == len(ops)/2 {
			probeAll("before capture")
			fresh := MustNewHierarchy(cfg)
			if err := fresh.RestoreWarm(h.CaptureWarm()); err != nil {
				t.Fatal(err)
			}
			h, r = fresh, r.restoredFrom()
			probeAll("after restore")
		}
		now += op.dt
		var got, want uint64
		switch op.kind {
		case opData:
			got, want = h.AccessData(op.addr, now, op.write, op.advance), r.AccessData(op.addr, now, op.write, op.advance)
		case opInst:
			got, want = h.AccessInst(op.addr, now), r.AccessInst(op.addr, now)
		case opWarmData:
			h.WarmData(op.addr, op.write)
			r.WarmData(op.addr, op.write)
		case opWarmInst:
			h.WarmInst(op.addr)
			r.WarmInst(op.addr)
		}
		if got != want {
			t.Fatalf("op %d %v at cycle %d: ready %d, reference %d", i, op, now, got, want)
		}
		if got, want := h.Stats(), r.Stats(); got != want {
			t.Fatalf("op %d %v at cycle %d: stats\n%+v\nreference\n%+v", i, op, now, got, want)
		}
		// The clock may jump anywhere between calls, so ask both before and
		// after the fills in flight complete.
		for _, at := range []uint64{now, now + 3, now + uint64(cfg.L3.Latency), now + uint64(cfg.MemLatency)} {
			if got, want := h.NextEvent(at), r.NextEvent(at); got != want {
				t.Fatalf("op %d %v at cycle %d: NextEvent(%d) = %d, reference %d", i, op, now, at, got, want)
			}
		}
		touched = append(touched, op.addr)
		if i%128 == 127 {
			probeAll(fmt.Sprintf("after op %d", i))
		}
	}
	probeAll("at the end")
	return h.Stats()
}

// TestCacheDifferential holds the packed levels to the timestamp reference on
// seeded streams over the named hierarchies and the widest geometry the
// packed words hold.
func TestCacheDifferential(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1500
	}
	for ci, cfg := range differentialConfigs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cfg%d/seed%d", ci, seed), func(t *testing.T) {
				s := checkCacheDifferential(t, cfg, genCacheStream(rand.New(rand.NewSource(seed)), cfg, n))
				if s.MSHRStalls == 0 || s.L1D.Writebacks == 0 || s.L1D.AdvanceMisses == 0 || s.L1I.Misses == 0 || s.L3.Misses == 0 {
					t.Errorf("stream misses a path the differential must cover: %+v", s)
				}
			})
		}
	}
}

// FuzzCacheDifferential drives the differential with fuzzed seeds, stream
// lengths and hierarchies.
func FuzzCacheDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(500))
	f.Add(int64(2), uint8(2), uint16(2000))
	f.Add(int64(3), uint8(3), uint16(1000))
	cfgs := differentialConfigs()
	f.Fuzz(func(t *testing.T, seed int64, which uint8, n uint16) {
		cfg := cfgs[int(which)%len(cfgs)]
		checkCacheDifferential(t, cfg, genCacheStream(rand.New(rand.NewSource(seed)), cfg, int(n%4096)+1))
	})
}
