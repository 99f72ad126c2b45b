// Package ooo implements the paper's out-of-order comparison models (§5.1):
// an idealized machine with register renaming free of WAW/WAR hazards, a
// 128-entry scheduling window, a 256-entry reorder buffer, oldest-first
// select, and three extra front-end stages reflected in the misprediction
// penalty; and the §5.2 "realistic" variant with decentralized 16-entry
// scheduling queues for memory, floating-point, and integer instructions.
//
// Idealizations, matching the paper's intent: scheduling and register read
// happen together (no speculative wakeup), predicate renaming is ideal, and
// memory disambiguation is perfect (loads issue as soon as their address
// register is ready and always receive correct values).
package ooo

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
	factory := func(realistic bool) sim.Factory {
		return func(opts sim.ModelOptions) (sim.Machine, error) {
			cfg := DefaultConfig()
			if realistic {
				cfg = RealisticConfig()
			}
			cfg.Hier = opts.Hier
			if opts.MaxInsts != 0 {
				cfg.MaxInsts = opts.MaxInsts
			}
			cfg.DisableSkip = opts.DisableSkip
			return New(cfg)
		}
	}
	sim.Register("ooo", factory(false))
	sim.Describe("ooo", "idealized large-window out-of-order (the paper's high-power offense)")
	sim.Register("ooo-realistic", factory(true))
	sim.Describe("ooo-realistic", "resource-constrained out-of-order (Table 2 window and ROB)")
}

// Config extends the common configuration with window geometry.
type Config struct {
	sim.Config
	// WindowSize is the unified scheduling window capacity (Table 2: 128).
	WindowSize int
	// ROBSize is the reorder buffer capacity (Table 2: 256).
	ROBSize int
	// RetireWidth is instructions retired per cycle.
	RetireWidth int
	// Decentralized selects the §5.2 realistic variant: per-class
	// scheduling queues of QueueSize entries each.
	Decentralized bool
	QueueSize     int
	// ConservativeMemOrder replaces the ideal memory disambiguation with
	// the conservative policy real load/store queues fall back on: a load
	// may not issue until every older store has issued (its address is
	// known). The paper's ideal model assumes perfect disambiguation; this
	// knob quantifies what that idealization is worth.
	ConservativeMemOrder bool
}

// DefaultConfig returns the idealized Table 2 out-of-order machine. The +3
// front-end (rename/schedule) stages raise the misprediction penalty.
func DefaultConfig() Config {
	c := Config{Config: sim.Default()}
	c.BufferSize = 256
	c.MispredictPenalty = 11
	c.WindowSize = 128
	c.ROBSize = 256
	c.RetireWidth = 6
	c.QueueSize = 16
	return c
}

// RealisticConfig returns the §5.2 variant with decentralized 16-entry
// scheduling queues.
func RealisticConfig() Config {
	c := DefaultConfig()
	c.Decentralized = true
	return c
}

// Validate checks the OOO-specific parameters.
func (c *Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.WindowSize < 1 || c.ROBSize < c.WindowSize || c.RetireWidth < 1 {
		return fmt.Errorf("ooo: invalid window/ROB geometry")
	}
	if c.Decentralized && c.QueueSize < 1 {
		return fmt.Errorf("ooo: invalid queue size")
	}
	return nil
}

// Machine is the out-of-order model.
type Machine struct {
	cfg Config
	tr  *sim.Trace
}

// UseTrace implements sim.TraceUser: subsequent runs of the traced program
// read the pre-decoded stream instead of re-interpreting it.
func (m *Machine) UseTrace(tr *sim.Trace) { m.tr = tr }

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
func (m *Machine) Name() string {
	if m.cfg.Decentralized {
		return "ooo-realistic"
	}
	return "ooo"
}

// queueOf maps an opcode to its decentralized scheduling queue.
func queueOf(op isa.Op) int {
	switch op.FU() {
	case isa.FUMem:
		return 0
	case isa.FUFP:
		return 1
	default:
		return 2
	}
}

const progressWindow = 1 << 20

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

	w := window.New(cfg.ROBSize, start)
	var (
		wm       sim.WarmMark
		st       sim.Stats
		now      uint64
		inWindow int
		inQueue  [3]int
		haltSeq  = ^uint64(0)
		lastWork uint64
		// barrier is the sequence of an in-flight branch whose prediction
		// is wrong: real hardware fetches the wrong path beyond it, so no
		// younger instruction may enter the machine until it resolves.
		barrier = ^uint64(0)
		skip    sim.SkipState
	)
	skipOn := !cfg.DisableSkip

	for {
		if err := sim.PollContext(ctx, now); err != nil {
			return nil, fmt.Errorf("ooo: %w", err)
		}
		wm.Mark(w.Base(), measure, &st, pred, hier)
		if w.Base() >= end {
			// Non-final interval done: every measured sequence has retired
			// (the final interval instead exits through the halt below).
			break
		}
		skip.Begin()
		// Retire in order from the ROB head.
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
			w.Retire()
			st.Retired++
			retired++
		}
		fe.Release(w.Base())
		if haltSeq != ^uint64(0) {
			st.Cycles++ // the retire cycle of halt
			st.Cat[sim.StallExecution]++
			break
		}

		// Rename/insert up to FetchWidth instructions.
		fe.SetLimit(w.Base() + uint64(cfg.ROBSize))
		inserted := 0
		robFullIdle, winFullIdle := false, false
		for inserted < cfg.FetchWidth && barrier == ^uint64(0) {
			seq := w.End()
			if seq >= end {
				// Interval end: nothing past it enters the machine, so base
				// rises to exactly end as the ROB drains.
				break
			}
			if w.Len() >= cfg.ROBSize {
				st.OOO.ROBFullCy++
				robFullIdle = inserted == 0
				break
			}
			if cfg.Decentralized {
				// Peek class before committing to insert.
				d, err := stream.At(seq)
				if err != nil {
					return nil, err
				}
				if d == nil {
					break
				}
				if inQueue[queueOf(d.Inst.Op)] >= cfg.QueueSize {
					st.OOO.WindowFullCy++
					winFullIdle = inserted == 0
					break
				}
			} else if inWindow >= cfg.WindowSize {
				st.OOO.WindowFullCy++
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
			e := w.Insert(d)
			e.Group = uint64(queueOf(d.Inst.Op))
			inWindow++
			inQueue[e.Group]++
			inserted++
			if d.Halt {
				break
			}
			if d.IsBranch && pred.Predict(d.Addr()) != d.Taken {
				// Everything fetched beyond this branch would be
				// wrong-path; stall the front end until it resolves.
				barrier = seq
			}
		}

		// Select and issue: oldest-first among ready woken entries.
		var use isa.FUUse
		issued := 0
		for seq, ok := w.NextWoken(w.Base()); ok && issued < cfg.Caps.MaxIssue; seq, ok = w.NextWoken(seq + 1) {
			e := w.At(seq)
			if e.ReadyAt > now {
				continue
			}
			// Conservative disambiguation: all older stores must have
			// issued before a load may.
			if cfg.ConservativeMemOrder && e.D.IsLoad && w.StoreWaitingBefore(seq) {
				continue
			}
			op := e.D.Inst.Op
			if !use.Fits(op, &cfg.Caps) {
				continue
			}
			use.Add(op)
			w.Issue(seq, now, hier)
			inWindow--
			inQueue[e.Group]--
			issued++
			lastWork = now

			if e.D.IsBranch {
				if seq == barrier {
					barrier = ^uint64(0) // resolved; fetch may resume
				}
				if !pred.Update(e.D.Addr(), e.D.Taken) {
					// Squash younger in-flight instructions and refetch.
					for y := seq + 1; y < w.End(); y++ {
						if ye := w.At(y); ye.State == window.Waiting {
							inWindow--
							inQueue[ye.Group]--
						}
					}
					st.OOO.Flushes++
					st.OOO.Squashed += w.End() - (seq + 1)
					w.Squash(int(seq - w.Base() + 1))
					if barrier != ^uint64(0) && barrier > seq {
						barrier = ^uint64(0)
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
		now++
		// Idle-cycle fast-forwarding: when nothing retired, inserted, issued,
		// or promoted, every structure holds its state and the attribution
		// scan reads only monotone comparisons (Done entries always have
		// completion <= now, issued ones were noted by Promote), so cycles
		// up to the earliest noted deadline replay identically.
		if skipOn && retired == 0 && inserted == 0 && issued == 0 && promoted == 0 {
			if d := skip.Jump(hier, now); d > 0 {
				st.Cat[cat] += d
				if robFullIdle {
					st.OOO.ROBFullCy += d
				}
				if winFullIdle {
					st.OOO.WindowFullCy += d
				}
				st.Cycles += d
				now += d
			}
		}
		if now-lastWork > progressWindow {
			return nil, fmt.Errorf("ooo: no issue for %d cycles at base %d", progressWindow, w.Base())
		}
	}

	st.Branch = pred.Stats()
	st.Memory = hier.Stats()
	wm.Discard(&st)
	if err := st.CheckConsistency(); err != nil {
		return nil, err
	}
	// The OOO model does not simulate values; its architectural outcome is
	// the oracle's final state (no wrong-path values can leak because
	// wrong paths are never simulated). Only the final interval — the one
	// that retires the halt — reports a meaningful state; the stitcher uses
	// exactly that one.
	fin := stream.FinalState()
	return &sim.Result{Stats: st, RF: fin.RF, Mem: fin.Mem}, nil
}
