// Package inorder implements the baseline machine of the paper's
// evaluation: a 6-issue, scoreboarded, in-order EPIC pipeline with
// stall-on-use semantics. Instructions issue in program order in dynamically
// dependence-checked groups under the FU capacities of Table 2; the first
// consumer of an unready value stalls the machine until the value arrives.
package inorder

import (
	"context"
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
)

func init() {
	sim.Register("inorder", func(opts sim.ModelOptions) (sim.Machine, error) {
		cfg := sim.Default()
		cfg.Hier = opts.Hier
		if opts.MaxInsts != 0 {
			cfg.MaxInsts = opts.MaxInsts
		}
		cfg.DisableSkip = opts.DisableSkip
		return New(cfg)
	})
	sim.Describe("inorder", "stall-on-use in-order EPIC pipeline (paper baseline)")
}

// Machine is the baseline in-order model.
type Machine struct {
	cfg sim.Config
	tr  *sim.Trace
}

// UseTrace implements sim.TraceUser: subsequent runs of the traced program
// read the pre-decoded stream instead of re-interpreting it.
func (m *Machine) UseTrace(tr *sim.Trace) { m.tr = tr }

// New validates the configuration and returns the model.
func New(cfg sim.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := mem.NewHierarchy(cfg.Hier); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// Name implements sim.Machine.
func (m *Machine) Name() string { return "inorder" }

// progressWindow bounds how many cycles the machine may go without issuing
// before the run is declared wedged (a model bug, not a program property).
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

// runFrom is the cycle loop, generalized over a starting checkpoint. With a
// nil checkpoint (a monolithic Run) the window bounds degenerate to
// [0, ^uint64(0)) with measurement from zero, and every added check is a
// no-op: the golden stats stay byte-identical.
func (m *Machine) runFrom(ctx context.Context, p *isa.Program, image *arch.Memory, ck *sim.Checkpoint) (*sim.Result, error) {
	cfg := &m.cfg
	hier := mem.MustNewHierarchy(cfg.Hier)
	pred := bpred.New(cfg.PredictorEntries)
	start, measure, end := ck.Bounds()
	var stream *sim.Stream
	var own *arch.State
	if ck == nil {
		stream = sim.StreamFor(p, image, cfg.MaxInsts, m.tr)
		own = arch.NewState(image.Clone())
	} else {
		if err := hier.RestoreWarm(ck.Caches); err != nil {
			return nil, err
		}
		if err := pred.RestoreWarm(ck.Pred); err != nil {
			return nil, err
		}
		stream = sim.StreamFrom(p, ck, cfg.MaxInsts, m.tr)
		own = &arch.State{RF: ck.RF.Clone(), Mem: ck.Mem.Clone(), PC: ck.PC, Retired: ck.Seq}
	}
	fe := sim.NewFetchUnit(stream, hier, cfg.FetchWidth)
	fe.StartAt(start)

	var (
		wm       sim.WarmMark
		readyAt  [isa.NumFlatRegs]uint64
		prodKind [isa.NumFlatRegs]sim.ProducerKind
		st       sim.Stats
		now      uint64
		next     uint64 // next sequence to issue
		lastWork uint64 // last cycle that issued something
		halted   bool
		regBuf   [4]isa.Reg
		skip     sim.SkipState
	)
	skipOn := !cfg.DisableSkip
	next = start

	for !halted && next < end {
		if err := sim.PollContext(ctx, now); err != nil {
			return nil, fmt.Errorf("inorder: %w", err)
		}
		wm.Mark(next, measure, &st, pred, hier)
		skip.Begin()
		fe.SetLimit(next + uint64(cfg.BufferSize))
		var use isa.FUUse
		var groupWrites sim.RegSet
		issued := 0
		blocker := sim.StallFrontEnd

		cut := wm.Cut(measure, end)

	group:
		for issued < cfg.Caps.MaxIssue && !halted {
			if next >= cut {
				// Window boundary: no group spans the measurement mark or
				// the interval end. Unreachable with issued == 0 (the outer
				// loop and Mark run first), so no idle cycle arises here.
				break
			}
			d, err := stream.At(next)
			if err != nil {
				return nil, err
			}
			if d == nil {
				return nil, fmt.Errorf("inorder: stream ended before halt issued")
			}
			fready, ok, err := fe.ReadyAt(next)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("inorder: fetch ended before halt issued")
			}
			if fready > now {
				blocker = sim.StallFrontEnd
				skip.Note(fready)
				break
			}
			in := d.Inst

			// Qualifying predicate must be readable.
			if groupWrites.Has(in.QP) {
				break // written earlier in this group: issue next cycle
			}
			if qf := in.QP.Flat(); readyAt[qf] > now {
				blocker = prodKind[qf].StallFor()
				skip.Note(readyAt[qf])
				break
			}
			qpTrue := own.RF.Read(in.QP).Bool()

			// Source operands: needed only when the instruction will
			// actually execute (predicated-off instructions are nullified
			// without stalling; branches consume only their predicate).
			if qpTrue && !in.Op.IsBranch() {
				for _, r := range in.Reads(regBuf[:0]) {
					if r == in.QP {
						continue
					}
					if groupWrites.Has(r) {
						break group
					}
					if f := r.Flat(); readyAt[f] > now {
						blocker = prodKind[f].StallFor()
						skip.Note(readyAt[f])
						break group
					}
				}
			}
			// Destinations: intra-group WAW splits the group; a pending
			// longer-latency write to the same register scoreboards the
			// issue (out-of-order completion, paper §3.5).
			if qpTrue {
				lat := uint64(in.Op.Latency())
				for _, r := range in.Writes(regBuf[:0]) {
					if groupWrites.Has(r) {
						break group
					}
					if f := r.Flat(); readyAt[f] > now+lat {
						blocker = sim.StallOther
						skip.Note(readyAt[f] - lat)
						break group
					}
				}
			}
			if !use.Fits(in.Op, &cfg.Caps) {
				blocker = sim.StallOther
				break
			}

			// Issue: architecturally execute on the machine's own state.
			if own.PC != int(d.Index) {
				return nil, fmt.Errorf("inorder: own PC %d diverged from stream index %d at seq %d", own.PC, d.Index, next)
			}
			info, err := own.Step(p)
			if err != nil {
				return nil, err
			}
			use.Add(in.Op)
			st.Retired++
			issued++
			lastWork = now

			completion := now + uint64(in.Op.Latency())
			kind := sim.ProducerOther
			switch {
			case info.IsLoad:
				completion = hier.AccessData(info.MemAddr, now, false, false)
				kind = sim.ProducerLoad
			case info.IsStore:
				// Stores retire into the machine's store path without
				// stalling the pipeline; the access still occupies the
				// hierarchy (allocation, MSHR).
				hier.AccessData(info.MemAddr, now, true, false)
			}
			if !info.Squashed {
				for _, r := range in.Writes(regBuf[:0]) {
					groupWrites.Add(r)
					if f := r.Flat(); !r.IsZeroReg() {
						readyAt[f] = completion
						prodKind[f] = kind
					}
				}
			}

			if in.Op.Kind() == isa.KindHalt {
				halted = true
			}
			next++

			if info.IsBranch {
				correct := pred.Update(d.Addr(), d.Taken)
				if !correct {
					fe.Flush(next, now+1+uint64(cfg.MispredictPenalty))
				}
				if d.Taken || !correct {
					break // no issue past a redirect in the same cycle
				}
			}
		}

		if issued > 0 {
			st.Cat[sim.StallExecution]++
		} else {
			st.Cat[blocker]++
		}
		st.Cycles++
		now++
		fe.Release(next)

		// Idle-cycle fast-forwarding: a cycle that issued nothing mutated no
		// machine state (the only visible effects above are guarded by the
		// issue path), and every future deadline it compared against was
		// Noted at its break site, so every cycle until the earliest noted
		// deadline replays identically. Credit them in bulk to the same
		// stall category the executed cycle charged.
		if skipOn && issued == 0 && !halted {
			if d := skip.Jump(hier, now); d > 0 {
				st.Cat[blocker] += d
				st.Cycles += d
				now += d
			}
		}

		if now-lastWork > progressWindow {
			return nil, fmt.Errorf("inorder: no issue for %d cycles at seq %d (model wedged)", progressWindow, next)
		}
	}

	st.Branch = pred.Stats()
	st.Memory = hier.Stats()
	wm.Discard(&st)
	if err := st.CheckConsistency(); err != nil {
		return nil, err
	}
	return &sim.Result{Stats: st, RF: own.RF, Mem: own.Mem}, nil
}
