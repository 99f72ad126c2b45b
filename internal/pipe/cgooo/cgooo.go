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
	"context"
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/pipe/window"
	"multipass/internal/sim"
)

func init() {
	sim.Register("cgooo", func(opts sim.ModelOptions) (sim.Machine, error) {
		cfg := DefaultConfig()
		cfg.Hier = opts.Hier
		if opts.MaxInsts != 0 {
			cfg.MaxInsts = opts.MaxInsts
		}
		cfg.DisableSkip = opts.DisableSkip
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
type Machine struct {
	cfg Config
	tr  *sim.Trace
}

// New validates the configuration and returns the model.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := mem.NewHierarchy(cfg.Hier); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// Name implements sim.Machine.
func (m *Machine) Name() string { return "cgooo" }

// UseTrace implements sim.TraceUser: subsequent runs of the traced program
// read the pre-decoded stream instead of re-interpreting it.
func (m *Machine) UseTrace(tr *sim.Trace) { m.tr = tr }

// Run implements sim.Machine.
func (m *Machine) Run(ctx context.Context, p *isa.Program, image *arch.Memory) (*sim.Result, error) {
	return m.runFrom(ctx, p, image, nil)
}

// CheckpointSpec implements sim.IntervalRunner.
func (m *Machine) CheckpointSpec() sim.CheckpointSpec {
	return sim.CheckpointSpec{Hier: m.cfg.Hier, PredictorEntries: m.cfg.PredictorEntries, MaxInsts: m.cfg.MaxInsts}
}

// RunInterval implements sim.IntervalRunner: it simulates one checkpointed
// interval of the dynamic stream. The machine carries only read-only state
// (config, trace), so concurrent interval calls are safe.
func (m *Machine) RunInterval(ctx context.Context, p *isa.Program, image *arch.Memory, ck *sim.Checkpoint) (*sim.Result, error) {
	return m.runFrom(ctx, p, image, ck)
}

// block is one block window's occupant: a contiguous run of the dynamic
// stream starting at start, n instructions long, closed once a branch, halt,
// or the BlockSize cap terminated it.
type block struct {
	start  uint64
	n      int
	closed bool
}

// noSeq marks no halt retired and no fetch barrier.
const noSeq = ^uint64(0)

const progressWindow = 1 << 20

func (m *Machine) runFrom(ctx context.Context, p *isa.Program, image *arch.Memory, ck *sim.Checkpoint) (*sim.Result, error) {
	cfg := m.cfg
	hier := mem.MustNewHierarchy(cfg.Hier)
	pred := bpred.New(cfg.PredictorEntries)
	start, measure, end := ck.Bounds()
	var stream *sim.Stream
	if ck == nil {
		stream = sim.StreamFor(p, image, cfg.MaxInsts, m.tr)
	} else {
		if err := hier.RestoreWarm(ck.Caches); err != nil {
			return nil, err
		}
		if err := pred.RestoreWarm(ck.Pred); err != nil {
			return nil, err
		}
		stream = sim.StreamFrom(p, ck, cfg.MaxInsts, m.tr)
	}
	fe := sim.NewFetchUnit(stream, hier, cfg.FetchWidth)
	fe.StartAt(start)

	// Fetch may run capacity — the whole block-window set, NumWindows x
	// BlockSize rounded up to a power of two — ahead of the head. The
	// window's own ring can be larger (it has at least 64 slots), so the
	// fetch limit uses capacity, never the ring size. Blocks live in their
	// own power-of-two ring indexed by block id.
	capacity := 1
	for capacity < cfg.NumWindows*cfg.BlockSize {
		capacity <<= 1
	}
	w := window.New(capacity, start)
	blkCap := 1
	for blkCap < cfg.NumWindows {
		blkCap <<= 1
	}
	blkRing := make([]block, blkCap)
	blkMask := uint64(blkCap - 1)

	var (
		wm       sim.WarmMark
		st       sim.Stats
		now      uint64
		blkBase  uint64 // id of the oldest live block
		blkCount int    // live blocks (occupied windows)
		open     bool   // youngest live block still accepts instructions
		haltSeq  = noSeq
		lastWork uint64
		// barrier is the sequence of an in-flight branch whose prediction
		// is wrong: real hardware fetches the wrong path beyond it, so no
		// younger instruction may enter the machine until it resolves.
		barrier = noSeq
		skip    sim.SkipState
	)
	skipOn := !cfg.DisableSkip
	blkAt := func(id uint64) *block { return &blkRing[id&blkMask] }

	for {
		if err := sim.PollContext(ctx, now); err != nil {
			return nil, fmt.Errorf("cgooo: %w", err)
		}
		wm.Mark(w.Base(), measure, &st, pred, hier)
		if w.Base() >= end {
			// Non-final interval done: every measured sequence has retired
			// (the final interval instead exits through the halt below).
			break
		}
		skip.Begin()
		// Retire in block order from the oldest window; within a block,
		// commit is in program order, so retirement walks the seq order and
		// frees a window when its block's last instruction leaves.
		retired := 0
		for retired < cfg.RetireWidth && w.Len() > 0 {
			if !wm.Marked() && w.Base() >= measure {
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
			if e.D.Halt {
				haltSeq = w.Base()
			}
			hb := blkAt(blkBase)
			w.Retire()
			st.Retired++
			retired++
			if hb.closed && w.Base() >= hb.start+uint64(hb.n) {
				blkBase++
				blkCount--
			}
		}
		fe.Release(w.Base())
		if haltSeq != noSeq {
			st.Cycles++ // the retire cycle of halt
			st.Cat[sim.StallExecution]++
			st.CGOOO.WindowOccCy += uint64(blkCount)
			break
		}

		// Dispatch up to FetchWidth instructions in order. A new block needs
		// a free window; the open block accepts until a branch, halt, or the
		// BlockSize cap closes it.
		fe.SetLimit(w.Base() + uint64(capacity))
		inserted := 0
		winFullIdle := false
		for inserted < cfg.FetchWidth && barrier == noSeq {
			seq := w.End()
			if seq >= end {
				// Interval end: nothing past it enters the machine, so base
				// rises to exactly end as the windows drain.
				break
			}
			if !open && blkCount >= cfg.NumWindows {
				st.CGOOO.WindowFullCy++
				winFullIdle = inserted == 0
				break
			}
			d, err := stream.At(seq)
			if err != nil {
				return nil, err
			}
			if d == nil {
				break
			}
			fready, ok, err := fe.ReadyAt(seq)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if fready > now {
				skip.Note(fready)
				break
			}
			curBlk := blkBase + uint64(blkCount) - 1
			if !open {
				curBlk = blkBase + uint64(blkCount)
				*blkAt(curBlk) = block{start: seq}
				blkCount++
				open = true
				st.CGOOO.Blocks++
				if uint64(blkCount) > st.CGOOO.PeakLiveBlocks {
					st.CGOOO.PeakLiveBlocks = uint64(blkCount)
				}
			}
			b := blkAt(curBlk)
			w.Insert(d).Group = curBlk
			b.n++
			inserted++
			if d.IsBranch || d.Halt || b.n >= cfg.BlockSize {
				b.closed = true
				open = false
				if uint64(b.n) > st.CGOOO.MaxBlockLen {
					st.CGOOO.MaxBlockLen = uint64(b.n)
				}
			}
			if d.Halt {
				break
			}
			if d.IsBranch && pred.Predict(d.Addr()) != d.Taken {
				// Everything fetched beyond this branch would be
				// wrong-path; stall the front end until it resolves.
				barrier = seq
			}
		}

		// Select and issue: each window picks ready instructions oldest-first
		// up to its own width; the shared functional units arbitrate across
		// windows, favoring older blocks (the walk is global seq order, so
		// per-window oldest-first and cross-window old-block-first coincide).
		var use isa.FUUse
		var blkIssued [maxWindows]uint8
		issued := 0
		for seq, ok := w.NextWoken(w.Base()); ok && issued < cfg.Caps.MaxIssue; seq, ok = w.NextWoken(seq + 1) {
			e := w.At(seq)
			if e.ReadyAt > now || int(blkIssued[e.Group&blkMask]) >= cfg.WindowIssue {
				continue
			}
			op := e.D.Inst.Op
			if !use.Fits(op, &cfg.Caps) {
				continue
			}
			use.Add(op)
			w.Issue(seq, now, hier)
			blkIssued[e.Group&blkMask]++
			issued++
			lastWork = now

			if e.D.IsBranch {
				if seq == barrier {
					barrier = noSeq // resolved; fetch may resume
				}
				if !pred.Update(e.D.Addr(), e.D.Taken) {
					// Block-granularity squash: the branch terminated its
					// block, so every younger in-flight instruction belongs
					// to a younger block; discard those blocks and refetch.
					removed := blkBase + uint64(blkCount) - (e.Group + 1)
					blkCount = int(e.Group - blkBase + 1)
					open = false
					st.CGOOO.BlockSquashes++
					st.CGOOO.SquashedBlocks += removed
					st.CGOOO.SquashedInsts += w.End() - (seq + 1)
					w.Squash(int(seq - w.Base() + 1))
					if barrier != noSeq && barrier > seq {
						barrier = noSeq
					}
					fe.Flush(seq+1, now+1+uint64(cfg.MispredictPenalty))
					break
				}
			}
		}
		promoted := w.Promote(now, &skip)

		// Attribution (paper §5.2): a cycle with no issue is charged to the
		// oldest unfinished instruction's stall cause, or to the front end
		// when the machine is empty.
		cat := sim.StallExecution
		if issued == 0 {
			cat = w.StallCause(now)
		}
		st.Cat[cat]++
		st.Cycles++
		st.CGOOO.WindowOccCy += uint64(blkCount)
		now++
		// Idle-cycle fast-forwarding: when nothing retired, dispatched,
		// issued, or promoted, every structure (entries, blocks, rename,
		// barrier) holds its state and the attribution scan reads only
		// monotone comparisons, so cycles up to the earliest noted deadline
		// replay identically; block occupancy is constant across the jump.
		if skipOn && retired == 0 && inserted == 0 && issued == 0 && promoted == 0 {
			if d := skip.Jump(hier, now); d > 0 {
				st.Cat[cat] += d
				if winFullIdle {
					st.CGOOO.WindowFullCy += d
				}
				st.Cycles += d
				st.CGOOO.WindowOccCy += d * uint64(blkCount)
				now += d
			}
		}
		if now-lastWork > progressWindow {
			return nil, fmt.Errorf("cgooo: no issue for %d cycles at base %d", progressWindow, w.Base())
		}
	}

	st.Branch = pred.Stats()
	st.Memory = hier.Stats()
	wm.Discard(&st)
	if err := st.CheckConsistency(); err != nil {
		return nil, err
	}
	// Like the other oracle-driven timing model (ooo), cgooo does not
	// simulate values; its architectural outcome is the oracle's final state
	// (wrong paths are never simulated, so nothing can leak). Only the final
	// interval — the one that retires the halt — reports a meaningful state;
	// the stitcher uses exactly that one.
	fin := stream.FinalState()
	return &sim.Result{Stats: st, RF: fin.RF, Mem: fin.Mem}, nil
}
