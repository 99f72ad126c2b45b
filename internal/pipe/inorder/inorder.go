// Package inorder implements the baseline machine of the paper's
// evaluation: a 6-issue, scoreboarded, in-order EPIC pipeline with
// stall-on-use semantics. Instructions issue in program order in dynamically
// dependence-checked groups under the FU capacities of Table 2; the first
// consumer of an unready value stalls the machine until the value arrives.
package inorder

import (
	"fmt"

	"multipass/internal/isa"
	"multipass/internal/sim"
)

func init() {
	sim.Register("inorder", func(opts sim.ModelOptions) (sim.Machine, error) {
		cfg := sim.Default()
		opts.Overlay(&cfg)
		return New(cfg)
	})
	sim.Describe("inorder", "stall-on-use in-order EPIC pipeline (paper baseline)")
}

// Machine is the baseline in-order model.
type Machine struct{ sim.Model }

// New validates the configuration and returns the model.
func New(cfg sim.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Fetch runs at most BufferSize past the issue head.
	m, err := sim.NewModel("inorder", cfg, false, cfg.BufferSize, func(r sim.Run) sim.Pipeline {
		return &pipeline{Run: r, cfg: &cfg, next: r.Start}
	})
	if err != nil {
		return nil, err
	}
	return &Machine{m}, nil
}

// pipeline is one run of the in-order issue stage. The driver (sim.Model)
// owns the clock, the interval window and idle-cycle skipping; the pipeline
// keeps the scoreboard and the issue position.
type pipeline struct {
	sim.Run
	cfg      *sim.Config
	readyAt  [isa.NumFlatRegs]uint64
	prodKind [isa.NumFlatRegs]sim.ProducerKind
	next     uint64 // next sequence to issue
	regBuf   [4]isa.Reg
}

// Head implements sim.Pipeline.
func (pl *pipeline) Head() uint64 { return pl.next }

// Credit implements sim.Pipeline: the in-order machine keeps no per-cycle
// counters of its own.
func (pl *pipeline) Credit(uint64) {}

// Step issues one group. A cycle that issued nothing mutated no machine
// state (every visible effect below is guarded by the issue path), and every
// future deadline it compared against was Noted at its break site, so it is
// Idle and charged to the blocker that stopped it.
func (pl *pipeline) Step() (sim.Cycle, error) {
	cfg, now := pl.cfg, pl.Now
	stream, fe, skip := pl.Stream, pl.Fetch, &pl.Skip
	readyAt, prodKind := &pl.readyAt, &pl.prodKind
	next := pl.next
	fe.SetLimit(next + uint64(cfg.BufferSize))
	var use isa.FUUse
	var groupWrites sim.RegSet
	issued := 0
	blocker := sim.StallFrontEnd
	halted := false
	cut := pl.Cut()

group:
	for issued < cfg.Caps.MaxIssue && !halted {
		if next >= cut {
			// Window boundary: no group spans the measurement mark or the
			// interval end.
			break
		}
		d, err := stream.At(next)
		if err != nil {
			return sim.Cycle{}, err
		}
		if d == nil {
			return sim.Cycle{}, fmt.Errorf("inorder: stream ended before halt issued")
		}
		fready, ok, err := fe.ReadyAt(next)
		if err != nil {
			return sim.Cycle{}, err
		}
		if !ok {
			return sim.Cycle{}, fmt.Errorf("inorder: fetch ended before halt issued")
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
		// The machine simulates no values: the stream's record resolves the
		// predicate (a branch is taken exactly when it is true).
		qpTrue := !d.Squashed
		if d.IsBranch {
			qpTrue = d.Taken
		}

		// Source operands: needed only when the instruction will actually
		// execute (predicated-off instructions are nullified without
		// stalling; branches consume only their predicate).
		if qpTrue && !in.Op.IsBranch() {
			for _, r := range in.Reads(pl.regBuf[:0]) {
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
		// longer-latency write to the same register scoreboards the issue
		// (out-of-order completion, paper §3.5).
		if qpTrue {
			lat := uint64(in.Op.Latency())
			for _, r := range in.Writes(pl.regBuf[:0]) {
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

		use.Add(in.Op)
		pl.Stats.Retired++
		issued++

		completion := now + uint64(in.Op.Latency())
		kind := sim.ProducerOther
		switch {
		case d.IsLoad:
			completion = pl.Hier.AccessData(d.MemAddr, now, false, false)
			kind = sim.ProducerLoad
		case d.IsStore:
			// Stores retire into the machine's store path without stalling
			// the pipeline; the access still occupies the hierarchy
			// (allocation, MSHR).
			pl.Hier.AccessData(d.MemAddr, now, true, false)
		}
		if !d.Squashed {
			for _, r := range in.Writes(pl.regBuf[:0]) {
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

		if d.IsBranch {
			correct := pl.Pred.Update(d.Addr(), d.Taken)
			if !correct {
				fe.Flush(next, now+1+uint64(cfg.MispredictPenalty))
			}
			if d.Taken || !correct {
				break // no issue past a redirect in the same cycle
			}
		}
	}
	pl.next = next

	if issued > 0 {
		return sim.Cycle{Cat: sim.StallExecution, Progress: true, Done: halted}, nil
	}
	return sim.Cycle{Cat: blocker, Idle: true}, nil
}
