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
	"fmt"

	// Imported for the compiler, not for names: Go inlines another package's
	// functions only when it imports that package, and the hot path calls
	// Gshare.Predict through the shared sim.Run.
	_ "multipass/internal/bpred"
	"multipass/internal/isa"
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
			opts.Overlay(&cfg.Config)
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
type Machine struct{ sim.Model }

// New validates the configuration and returns the model.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := "ooo"
	if cfg.Decentralized {
		name = "ooo-realistic"
	}
	// Fetch runs at most ROBSize past the ROB head.
	m, err := sim.NewModel(name, cfg.Config, false, cfg.ROBSize, func(r sim.Run) sim.Pipeline {
		return &pipeline{Run: r, cfg: &cfg, w: window.New(cfg.ROBSize, r.Start), barrier: noSeq}
	})
	if err != nil {
		return nil, err
	}
	return &Machine{m}, nil
}

// queueOf maps a functional-unit class to its decentralized scheduling
// queue.
func queueOf(fu isa.FUClass) int {
	switch fu {
	case isa.FUMem:
		return 0
	case isa.FUFP:
		return 1
	default:
		return 2
	}
}

// noSeq marks no fetch barrier.
const noSeq = ^uint64(0)

// pipeline is one run of the out-of-order machine over the shared window.
type pipeline struct {
	sim.Run
	cfg      *Config
	w        *window.Window
	inWindow int
	inQueue  [3]int
	// barrier is the sequence of an in-flight branch whose prediction is
	// wrong: real hardware fetches the wrong path beyond it, so no younger
	// instruction may enter the machine until it resolves.
	barrier uint64
	// robFullIdle and winFullIdle record that the last cycle's insert stage
	// stalled on a full ROB or window without inserting anything.
	robFullIdle, winFullIdle bool
}

// Head implements sim.Pipeline: the ROB head.
func (pl *pipeline) Head() uint64 { return pl.w.Base() }

// Credit implements sim.Pipeline: skipped repeats of a cycle whose insert
// stage stalled on a full structure count as stalled there too.
func (pl *pipeline) Credit(n uint64) {
	if pl.robFullIdle {
		pl.Stats.OOO.ROBFullCy += n
	}
	if pl.winFullIdle {
		pl.Stats.OOO.WindowFullCy += n
	}
}

// Step runs one cycle: retire, rename/insert, select and issue, promote.
// When nothing retired, inserted, issued, or promoted, every structure holds
// its state and the attribution scan reads only monotone comparisons (Done
// entries always have completion <= now, issued ones were noted by Promote),
// so the cycle is Idle. The run ends mid-cycle when the halt retires.
func (pl *pipeline) Step() (sim.Cycle, error) {
	cfg, w, now, st := pl.cfg, pl.w, pl.Now, &pl.Stats
	skip := &pl.Skip

	// Retire in order from the ROB head.
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
		halt := e.D.Halt
		w.Retire()
		st.Retired++
		retired++
		if halt {
			return sim.Cycle{Cat: sim.StallExecution, Done: true}, nil
		}
	}

	// Rename/insert up to FetchWidth instructions.
	pl.Fetch.SetLimit(w.Base() + uint64(cfg.ROBSize))
	inserted := 0
	pl.robFullIdle, pl.winFullIdle = false, false
	for inserted < cfg.FetchWidth && pl.barrier == noSeq {
		seq := w.End()
		if seq >= pl.End {
			// Interval end: nothing past it enters the machine, so the head
			// rises to exactly End as the ROB drains.
			break
		}
		if w.Len() >= cfg.ROBSize {
			st.OOO.ROBFullCy++
			pl.robFullIdle = inserted == 0
			break
		}
		if cfg.Decentralized {
			// Peek class before committing to insert.
			d, err := pl.Stream.At(seq)
			if err != nil {
				return sim.Cycle{}, err
			}
			if d == nil {
				break
			}
			if pl.inQueue[queueOf(pl.Ops[d.Index].FU)] >= cfg.QueueSize {
				st.OOO.WindowFullCy++
				pl.winFullIdle = inserted == 0
				break
			}
		} else if pl.inWindow >= cfg.WindowSize {
			st.OOO.WindowFullCy++
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
		s := &pl.Ops[d.Index]
		e := w.Insert(d, s)
		e.Group = uint64(queueOf(s.FU))
		pl.inWindow++
		pl.inQueue[e.Group]++
		inserted++
		if d.Halt {
			break
		}
		if d.IsBranch && pl.Pred.Predict(s.Addr) != d.Taken {
			// Everything fetched beyond this branch would be wrong-path;
			// stall the front end until it resolves.
			pl.barrier = seq
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
		// Conservative disambiguation: all older stores must have issued
		// before a load may.
		if cfg.ConservativeMemOrder && e.D.IsLoad && w.StoreWaitingBefore(seq) {
			continue
		}
		if !use.FitsClass(e.S.FU, e.S.Kind, &cfg.Caps) {
			continue
		}
		use.AddClass(e.S.FU, e.S.Kind)
		w.Issue(seq, now, pl.Hier)
		pl.inWindow--
		pl.inQueue[e.Group]--
		issued++

		if e.D.IsBranch {
			if seq == pl.barrier {
				pl.barrier = noSeq // resolved; fetch may resume
			}
			if !pl.Pred.Update(e.S.Addr, e.D.Taken) {
				// Squash younger in-flight instructions and refetch.
				for y := seq + 1; y < w.End(); y++ {
					if ye := w.At(y); ye.State == window.Waiting {
						pl.inWindow--
						pl.inQueue[ye.Group]--
					}
				}
				st.OOO.Flushes++
				st.OOO.Squashed += w.End() - (seq + 1)
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
	idle := retired == 0 && inserted == 0 && issued == 0 && promoted == 0
	return sim.Cycle{Cat: cat, Idle: idle, Progress: issued > 0}, nil
}
