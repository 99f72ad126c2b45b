// Package cgooo implements a coarse-grain out-of-order timing model after
// CG-OoO (Mohammadi et al., "CG-OoO: Energy-Efficient Coarse-Grain
// Out-of-Order Execution"): the other major point in the paper's "alternative
// to the high-power out-of-order offense" design space. Instruction blocks —
// cut at every branch and at BlockSize instructions — dispatch in program
// order to a small set of block windows, each with its own energy-cheap
// scheduler; within a block, instructions issue out of order as their
// operands arrive (up to WindowIssue per block per cycle); blocks commit in
// dispatch order, and a mispredicted branch squashes at block granularity
// (every block younger than the branch's block — a branch always terminates
// its block, so the squash boundary is exactly a block boundary).
//
// The energy argument this geometry models: the unified 128-entry wakeup CAM
// and issue table of the baseline out-of-order machine are replaced by
// NumWindows schedulers of BlockSize entries each, so tag broadcast and
// select operate over windows an order of magnitude smaller (see
// internal/power). The performance cost is the per-block issue-width cap and
// in-order block dispatch.
//
// Idealizations match the ooo package, so cycle comparisons isolate the
// scheduling geometry: renaming is global and free of WAW/WAR hazards,
// scheduling and register read happen together, predicate renaming is ideal,
// and memory disambiguation is perfect. The front end keeps the baseline
// out-of-order depth (rename and block dispatch stages), so the misprediction
// penalty matches the ooo model's.
package cgooo

import (
	"fmt"

	"multipass/internal/arch"
	// Imported for the compiler, not for names: Go inlines another package's
	// functions only when it imports that package, and the hot path calls
	// Gshare.Predict through the shared sim.Run.
	_ "multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/pipe/window"
	"multipass/internal/sim"
)

func init() {
	sim.Register("cgooo", func(opts sim.ModelOptions) (sim.Machine, error) {
		cfg := DefaultConfig()
		opts.Overlay(&cfg.Config)
		return New(cfg)
	})
	sim.Describe("cgooo", "coarse-grain out-of-order: in-order block dispatch to small per-block schedulers (CG-OoO)")
}

// maxWindows bounds NumWindows so per-cycle bookkeeping fits fixed arrays.
const maxWindows = 64

// Config extends the common configuration with the block-window geometry.
type Config struct {
	sim.Config
	// NumWindows is the number of block windows (concurrently live blocks).
	NumWindows int
	// BlockSize is the maximum instructions per block; blocks also end at
	// every branch and at halt.
	BlockSize int
	// WindowIssue is each block window's issue width per cycle. The global
	// functional-unit capacities (Caps) still arbitrate across windows.
	WindowIssue int
	// RetireWidth is instructions retired per cycle (block-order commit).
	RetireWidth int
}

// DefaultConfig returns the CG-OoO machine: 8 block windows of 32 entries
// (256 instructions in flight, matching the ooo model's ROB), 2-wide issue
// per window, and the same +3 front-end stages in the misprediction penalty
// as the baseline out-of-order machine.
func DefaultConfig() Config {
	c := Config{Config: sim.Default()}
	c.BufferSize = 256
	c.MispredictPenalty = 11
	c.NumWindows = 8
	c.BlockSize = 32
	c.WindowIssue = 2
	c.RetireWidth = 6
	return c
}

// Validate checks the CG-OoO-specific parameters.
func (c *Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.NumWindows < 1 || c.NumWindows > maxWindows {
		return fmt.Errorf("cgooo: NumWindows %d outside [1, %d]", c.NumWindows, maxWindows)
	}
	if c.BlockSize < 1 || c.WindowIssue < 1 || c.RetireWidth < 1 {
		return fmt.Errorf("cgooo: invalid block geometry")
	}
	return nil
}

// Machine is the coarse-grain out-of-order model.
type Machine struct{ sim.Model }

// New validates the configuration and returns the model.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Fetch runs at most the block-window capacity past the head.
	m, err := sim.NewModel("cgooo", cfg.Config, false, capacity(&cfg), func(r sim.Run) sim.Pipeline {
		return newPipeline(r, &cfg)
	})
	if err != nil {
		return nil, err
	}
	return &Machine{m}, nil
}

// block is one block window's occupant: a contiguous run of the dynamic
// stream starting at start, n instructions long, closed once a branch, halt,
// or the BlockSize cap terminated it.
type block struct {
	start  uint64
	n      int
	closed bool
}

// noSeq marks no fetch barrier.
const noSeq = ^uint64(0)

// pipeline is one run of the CG-OoO machine: the shared instruction window
// plus the ring of live blocks, indexed by block id.
type pipeline struct {
	sim.Run
	cfg      *Config
	w        *window.Window
	capacity uint64 // instructions fetch may run ahead of the head
	blkRing  []block
	blkMask  uint64
	blkBase  uint64 // id of the oldest live block
	blkCount int    // live blocks (occupied windows)
	open     bool   // youngest live block still accepts instructions
	// barrier is the sequence of an in-flight branch whose prediction is
	// wrong: real hardware fetches the wrong path beyond it, so no younger
	// instruction may enter the machine until it resolves.
	barrier uint64
	// winFullIdle records that the last cycle's dispatch stalled on window
	// exhaustion without dispatching anything.
	winFullIdle bool
}

// capacity is how far fetch may run ahead of the head: the whole
// block-window set, NumWindows x BlockSize rounded up to a power of two.
func capacity(cfg *Config) int {
	c := 1
	for c < cfg.NumWindows*cfg.BlockSize {
		c <<= 1
	}
	return c
}

// newPipeline sizes a run's structures. The window's own ring can be larger
// than capacity (it has at least 64 slots), so the fetch limit uses
// capacity, never the ring size. Blocks live in their own power-of-two ring
// indexed by block id.
func newPipeline(r sim.Run, cfg *Config) *pipeline {
	capacity := capacity(cfg)
	blkCap := 1
	for blkCap < cfg.NumWindows {
		blkCap <<= 1
	}
	return &pipeline{
		Run:      r,
		cfg:      cfg,
		w:        window.New(capacity, r.Start),
		capacity: uint64(capacity),
		blkRing:  make([]block, blkCap),
		blkMask:  uint64(blkCap - 1),
		barrier:  noSeq,
	}
}

func (pl *pipeline) blkAt(id uint64) *block { return &pl.blkRing[id&pl.blkMask] }

// Head implements sim.Pipeline: the oldest in-flight instruction.
func (pl *pipeline) Head() uint64 { return pl.w.Base() }

// Credit implements sim.Pipeline. Block occupancy is constant across a jump,
// so the occupancy integral grows by n times the live blocks; a cycle whose
// dispatch stalled on window exhaustion stalls there for its repeats too.
func (pl *pipeline) Credit(n uint64) {
	if pl.winFullIdle {
		pl.Stats.CGOOO.WindowFullCy += n
	}
	pl.Stats.CGOOO.WindowOccCy += n * uint64(pl.blkCount)
}

// Step runs one cycle: block-order retire, in-order dispatch, per-window
// select and issue, promote. When nothing retired, dispatched, issued, or
// promoted, every structure (entries, blocks, rename, barrier) holds its
// state and the attribution scan reads only monotone comparisons, so the
// cycle is Idle. The run ends mid-cycle when the halt retires.
func (pl *pipeline) Step() (sim.Cycle, error) {
	cfg, w, now, st := pl.cfg, pl.w, pl.Now, &pl.Stats
	skip := &pl.Skip

	// Retire in block order from the oldest window; within a block, commit
	// is in program order, so retirement walks the seq order and frees a
	// window when its block's last instruction leaves.
	cut := pl.Cut()
	retired := 0
	for retired < cfg.RetireWidth && w.Len() > 0 {
		if w.Base() >= cut {
			// No retire burst spans the measurement mark; the baseline
			// lands exactly on the boundary next cycle.
			break
		}
		e := w.At(w.Base())
		if e.State != window.Done || e.Completion > now {
			if e.State == window.Done {
				skip.Note(e.Completion)
			}
			break
		}
		halt := e.S.Kind == isa.KindHalt && e.D.Flags&arch.EvSquash == 0
		hb := pl.blkAt(pl.blkBase)
		w.Retire()
		st.Retired++
		retired++
		if hb.closed && w.Base() >= hb.start+uint64(hb.n) {
			pl.blkBase++
			pl.blkCount--
		}
		if halt {
			st.CGOOO.WindowOccCy += uint64(pl.blkCount)
			return sim.Cycle{Cat: sim.StallExecution, Done: true}, nil
		}
	}

	// Dispatch up to FetchWidth instructions in order. A new block needs a
	// free window; the open block accepts until a branch, halt, or the
	// BlockSize cap closes it.
	pl.Fetch.SetLimit(w.Base() + pl.capacity)
	inserted := 0
	pl.winFullIdle = false
	for inserted < cfg.FetchWidth && pl.barrier == noSeq {
		seq := w.End()
		if seq >= pl.End {
			// Interval end: nothing past it enters the machine, so the head
			// rises to exactly End as the windows drain.
			break
		}
		if !pl.open && pl.blkCount >= cfg.NumWindows {
			st.CGOOO.WindowFullCy++
			pl.winFullIdle = inserted == 0
			break
		}
		d, err := pl.Stream.At(seq)
		if err != nil {
			return sim.Cycle{}, err
		}
		if d == nil {
			break
		}
		fready, ok, err := pl.Fetch.ReadyAt(seq)
		if err != nil {
			return sim.Cycle{}, err
		}
		if !ok {
			break
		}
		if fready > now {
			skip.Note(fready)
			break
		}
		curBlk := pl.blkBase + uint64(pl.blkCount) - 1
		if !pl.open {
			curBlk = pl.blkBase + uint64(pl.blkCount)
			*pl.blkAt(curBlk) = block{start: seq}
			pl.blkCount++
			pl.open = true
			st.CGOOO.Blocks++
			if uint64(pl.blkCount) > st.CGOOO.PeakLiveBlocks {
				st.CGOOO.PeakLiveBlocks = uint64(pl.blkCount)
			}
		}
		b := pl.blkAt(curBlk)
		s, flags := &pl.Ops[d.Idx], d.Flags
		halt := s.Kind == isa.KindHalt && flags&arch.EvSquash == 0
		w.Insert(d, s).Group = curBlk
		b.n++
		inserted++
		if flags&arch.EvBranch != 0 || halt || b.n >= cfg.BlockSize {
			b.closed = true
			pl.open = false
			if uint64(b.n) > st.CGOOO.MaxBlockLen {
				st.CGOOO.MaxBlockLen = uint64(b.n)
			}
		}
		if halt {
			break
		}
		if flags&arch.EvBranch != 0 && pl.Pred.Predict(s.Addr) != (flags&arch.EvTaken != 0) {
			// Everything fetched beyond this branch would be wrong-path;
			// stall the front end until it resolves.
			pl.barrier = seq
		}
	}

	// Select and issue: each window picks ready instructions oldest-first up
	// to its own width; the shared functional units arbitrate across
	// windows, favoring older blocks (the walk is global seq order, so
	// per-window oldest-first and cross-window old-block-first coincide).
	var use isa.FUUse
	var blkIssued [maxWindows]uint8
	issued := 0
	for seq, ok := w.NextWoken(w.Base()); ok && issued < cfg.Caps.MaxIssue; seq, ok = w.NextWoken(seq + 1) {
		e := w.At(seq)
		if e.ReadyAt > now || int(blkIssued[e.Group&pl.blkMask]) >= cfg.WindowIssue {
			continue
		}
		if !use.FitsClass(e.S.FU, e.S.Kind, &cfg.Caps) {
			continue
		}
		use.AddClass(e.S.FU, e.S.Kind)
		w.Issue(seq, now, pl.Hier)
		blkIssued[e.Group&pl.blkMask]++
		issued++

		if flags := e.D.Flags; flags&arch.EvBranch != 0 {
			if seq == pl.barrier {
				pl.barrier = noSeq // resolved; fetch may resume
			}
			if !pl.Pred.Update(e.S.Addr, flags&arch.EvTaken != 0) {
				// Block-granularity squash: the branch terminated its block,
				// so every younger in-flight instruction belongs to a younger
				// block; discard those blocks and refetch.
				removed := pl.blkBase + uint64(pl.blkCount) - (e.Group + 1)
				pl.blkCount = int(e.Group - pl.blkBase + 1)
				pl.open = false
				st.CGOOO.BlockSquashes++
				st.CGOOO.SquashedBlocks += removed
				st.CGOOO.SquashedInsts += w.End() - (seq + 1)
				w.Squash(int(seq - w.Base() + 1))
				if pl.barrier != noSeq && pl.barrier > seq {
					pl.barrier = noSeq
				}
				pl.Fetch.Flush(seq+1, now+1+uint64(cfg.MispredictPenalty))
				break
			}
		}
	}
	promoted := w.Promote(now, skip)

	// Attribution (paper §5.2): a cycle with no issue is charged to the
	// oldest unfinished instruction's stall cause, or to the front end when
	// the machine is empty.
	cat := sim.StallExecution
	if issued == 0 {
		cat = w.StallCause(now)
	}
	st.CGOOO.WindowOccCy += uint64(pl.blkCount)
	idle := retired == 0 && inserted == 0 && issued == 0 && promoted == 0
	return sim.Cycle{Cat: cat, Idle: idle, Progress: issued > 0}, nil
}
