package mem

import (
	"fmt"
	"slices"
)

// Warm-state capture for checkpointed sampling. A functional fast-forward
// replays the retired load/store/fetch sequence through WarmData/WarmInst to
// keep tags and LRU order realistic, then CaptureWarm snapshots each level's
// way and recency words so a parallel interval worker can RestoreWarm them
// into a fresh hierarchy. Only content state (tags, valid/dirty bits, LRU
// order) is carried: statistics stay at zero on the restored hierarchy so
// they count only the interval's own activity, and the MSHR file is defined
// to be drained at a checkpoint — fills have no timing during a functional
// fast-forward, and the interval's warm-up window re-establishes in-flight
// misses before measurement begins.

// WarmData touches the hierarchy along AccessData's install path without any
// timing: LRU refresh on hits, install-through on misses. No MSHR is
// consumed and no completion time exists, so there is no miss merging — the
// functional stream has no notion of overlap. The receiver is a
// warming-dedicated hierarchy whose statistics are never read.
func (h *Hierarchy) WarmData(addr uint32, write bool) {
	if !h.l1d.access(addr, write, false) && !h.l2.access(addr, false, false) {
		h.l3.access(addr, false, false)
	}
}

// WarmInst is WarmData for the instruction side, mirroring AccessInst.
func (h *Hierarchy) WarmInst(addr uint32) {
	if !h.l1i.access(addr, false, false) && !h.l2.access(addr, false, false) {
		h.l3.access(addr, false, false)
	}
}

// WarmCaches is a deep copy of the four caches' content state.
type WarmCaches struct {
	cfg HierConfig
	l1i warmLevel
	l1d warmLevel
	l2  warmLevel
	l3  warmLevel
}

type warmLevel struct {
	ways  []uint32
	order []uint64
}

func captureLevel(c *cache) warmLevel {
	return warmLevel{ways: slices.Clone(c.ways), order: slices.Clone(c.order)}
}

func restoreLevel(c *cache, w warmLevel) {
	copy(c.ways, w.ways)
	copy(c.order, w.order)
}

// CaptureWarm snapshots tags, valid/dirty bits and LRU order of every level:
// 4 bytes per line and 8 per set, 128,000 bytes on the base hierarchy.
func (h *Hierarchy) CaptureWarm() *WarmCaches {
	return &WarmCaches{
		cfg: h.cfg,
		l1i: captureLevel(&h.l1i),
		l1d: captureLevel(&h.l1d),
		l2:  captureLevel(&h.l2),
		l3:  captureLevel(&h.l3),
	}
}

// RestoreWarm overwrites the hierarchy's cache contents from a capture taken
// on a hierarchy with identical geometry. Statistics, MSHRs and the
// instruction-side fill are untouched (a freshly built hierarchy has them
// zeroed, which is the checkpoint contract: MSHRs drain at checkpoints).
func (h *Hierarchy) RestoreWarm(w *WarmCaches) error {
	if w == nil {
		return fmt.Errorf("mem: nil warm capture")
	}
	if w.cfg != h.cfg {
		return fmt.Errorf("mem: warm capture geometry %+v does not match hierarchy %+v", w.cfg, h.cfg)
	}
	restoreLevel(&h.l1i, w.l1i)
	restoreLevel(&h.l1d, w.l1d)
	restoreLevel(&h.l2, w.l2)
	restoreLevel(&h.l3, w.l3)
	return nil
}
