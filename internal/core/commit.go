package core

import (
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/sim"
)

// commitCycle runs one cycle of the architectural stream (architectural or
// rally mode): instructions are dequeued in order, merging preserved RS
// results where possible (§3.2 regrouping), re-performing data-speculative
// loads through the SMAQ with value verification (§3.6), executing the rest
// normally, and entering advance mode on a stall-on-use of a load value.
func (r *run) commitCycle() (sim.Cycle, error) {
	if r.mode == modeRally {
		r.Stats.Multipass.RallyCycles++
	} else {
		r.Stats.Multipass.ArchCycles++
	}
	r.Fetch.SetLimit(r.next + uint64(r.cfg.IQSize))

	var use isa.FUUse
	var groupWrites sim.RegSet
	progress := 0
	blocker := sim.StallFrontEnd
	now := r.Now
	wcut := r.Cut()

group:
	for progress < r.cfg.Caps.MaxIssue && !r.halted {
		if r.next >= wcut {
			// Window boundary: no group spans the measurement mark or the
			// interval end, and no advance episode may be entered past it.
			break
		}
		d, err := r.Stream.At(r.next)
		if err != nil {
			return sim.Cycle{}, err
		}
		if d == nil {
			return sim.Cycle{}, fmt.Errorf("core: stream ended before halt committed")
		}
		fready, ok, err := r.Fetch.ReadyAt(r.next)
		if err != nil {
			return sim.Cycle{}, err
		}
		if !ok {
			return sim.Cycle{}, fmt.Errorf("core: fetch ended before halt committed")
		}
		if fready > now {
			blocker = sim.StallFrontEnd
			r.Skip.Note(fready)
			break
		}
		if r.ownPC != int(d.Idx) {
			return sim.Cycle{}, fmt.Errorf("core: machine PC %d diverged from stream index %d at seq %d", r.ownPC, d.Idx, r.next)
		}
		in, s := &r.Prog.Insts[d.Idx], &r.Ops[d.Idx]
		e := r.rs.get(r.next)

		// Data-speculative load: re-perform the access via the SMAQ address
		// and verify the preserved value (§3.6).
		if e != nil && e.spec && s.IsLoad() {
			done, err := r.commitSpecLoad(in, s, e, &use, &groupWrites, &progress, &blocker, now)
			if err != nil {
				return sim.Cycle{}, err
			}
			if !done {
				break
			}
			continue
		}

		// Merge a preserved result (§3.1.3, §3.2).
		if e != nil {
			done, redirect, err := r.commitMerge(in, s, d, e, &use, &groupWrites, &progress, &blocker, now)
			if err != nil {
				return sim.Cycle{}, err
			}
			if !done {
				break
			}
			if redirect {
				break
			}
			continue
		}

		// Normal in-order execution with advance-entry detection.

		// Qualifying predicate.
		if q := s.QP; q >= 0 {
			if groupWrites.Has(q) {
				break
			}
			if r.readyAt[q] > now {
				if r.prodKind[q] == sim.ProducerLoad {
					r.enterAdvance(r.next, r.readyAt[q])
					blocker = sim.StallLoad
					break
				}
				blocker = r.prodKind[q].StallFor()
				r.Skip.Note(r.readyAt[q])
				break
			}
		}
		qpTrue := r.ownRF.Read(in.QP).Bool()

		if qpTrue && !s.IsBranch() {
			for _, f := range s.Srcs() {
				if groupWrites.Has(f) {
					break group
				}
				if r.readyAt[f] > now {
					if r.prodKind[f] == sim.ProducerLoad {
						r.enterAdvance(r.next, r.readyAt[f])
						blocker = sim.StallLoad
						break group
					}
					blocker = r.prodKind[f].StallFor()
					r.Skip.Note(r.readyAt[f])
					break group
				}
			}
		}
		if qpTrue {
			lat := uint64(s.Lat)
			for _, f := range s.Dsts() {
				if groupWrites.Has(f) {
					break group
				}
				if r.readyAt[f] > now+lat {
					blocker = sim.StallOther
					r.Skip.Note(r.readyAt[f] - lat)
					break group
				}
			}
		}
		if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
			blocker = sim.StallOther
			break
		}
		use.AddClass(s.FU, s.Kind)

		redirect, err := r.commitExec(in, s, d, qpTrue, &groupWrites, now)
		if err != nil {
			return sim.Cycle{}, err
		}
		progress++
		if redirect {
			break
		}
	}

	if r.mode == modeRally && r.next >= r.maxPeek {
		r.mode = modeArch
		r.traceArch()
	}
	if progress > 0 {
		return sim.Cycle{Cat: sim.StallExecution, Progress: true, Done: r.halted}, nil
	}
	// A progress-free cycle mutated nothing (advance entry marks the skip
	// state dirty, so Jump refuses after enterAdvance). The rally to arch
	// flip above is harmless: repeats replay identically in the new mode,
	// and Credit counts them in the mode after the flip.
	return sim.Cycle{Cat: blocker, Idle: true}, nil
}

// commitMerge merges one preserved RS entry into architectural state.
// Returns done=false when the group must end without consuming the
// instruction, redirect=true after a merged taken branch.
func (r *run) commitMerge(in *isa.Inst, s *sim.StaticInst, d *arch.ExecEvent, e *rsEntry, use *isa.FUUse, groupWrites *sim.RegSet, progress *int, blocker *sim.StallKind, now uint64) (done, redirect bool, err error) {
	if r.cfg.DisableRegroup {
		// Without issue regrouping, group formation treats the merged
		// instruction like a normal one: dependences on group members split
		// the group and the instruction occupies its functional unit. The
		// preserved result still avoids re-execution (and converts long
		// latencies to availability at merge time).
		for _, f := range s.Reads() {
			if groupWrites.Has(f) {
				return false, false, nil
			}
		}
		for _, f := range s.Dsts() {
			if groupWrites.Has(f) {
				return false, false, nil
			}
		}
		if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
			*blocker = sim.StallOther
			return false, false, nil
		}
		use.AddClass(s.FU, s.Kind)
	}

	// Internal consistency: the preserved outcome must match the oracle
	// path. Rally's in-order verify-then-flush of data-speculative loads
	// guarantees this; a mismatch is a model bug.
	flags := d.Flags
	if e.squashed != (flags&arch.EvSquash != 0) {
		return false, false, fmt.Errorf("core: merged squash state diverged at seq %d", r.next)
	}
	if e.branchDone && e.branchTaken != (flags&arch.EvTaken != 0) {
		return false, false, fmt.Errorf("core: merged branch direction diverged at seq %d", r.next)
	}

	if !e.squashed {
		if e.hasVal {
			r.commitWrite(in, e.val)
		}
		if e.isStore {
			r.ownMem.StoreWord(in.Op, e.addr, e.val)
			r.Hier.AccessData(e.addr, now, true, false)
		}
	}
	kind := sim.ProducerOther
	if s.IsLoad() {
		kind = sim.ProducerLoad
	}
	readyC := e.readyCycle
	if r.cfg.DisableRegroup && readyC < now+1 {
		readyC = now + 1
	} else if readyC < now {
		readyC = now
	}
	if !e.squashed {
		r.setReady(s, readyC, kind, groupWrites, r.cfg.DisableRegroup)
	}
	r.Stats.Multipass.Merged++
	r.traceMerge(r.next, e)
	r.Stats.Retired++
	*progress++

	if e.branchDone && e.branchTaken {
		r.ownPC = int(in.Target)
		redirect = true
	} else {
		r.ownPC++
	}
	if s.Kind == isa.KindHalt {
		// Halt never receives an RS entry (advance stops before it).
		return false, false, fmt.Errorf("core: halt had an RS entry at seq %d", r.next)
	}
	r.rs.drop(r.next)
	r.next++
	return true, redirect, nil
}

// commitSpecLoad re-performs a data-speculative load in rally mode using its
// SMAQ address, verifying the preserved value and flushing on mismatch.
func (r *run) commitSpecLoad(in *isa.Inst, s *sim.StaticInst, e *rsEntry, use *isa.FUUse, groupWrites *sim.RegSet, progress *int, blocker *sim.StallKind, now uint64) (bool, error) {
	seq := r.next
	if q := s.QP; q >= 0 {
		if groupWrites.Has(q) {
			return false, nil
		}
		if r.readyAt[q] > now {
			*blocker = r.prodKind[q].StallFor()
			r.Skip.Note(r.readyAt[q])
			return false, nil
		}
	}
	if !r.ownRF.Read(in.QP).Bool() {
		return false, fmt.Errorf("core: data-speculative load was pre-executed but predicate is false at seq %d", seq)
	}
	for _, f := range s.Dsts() {
		if groupWrites.Has(f) {
			return false, nil
		}
	}
	if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
		*blocker = sim.StallOther
		return false, nil
	}
	use.AddClass(s.FU, s.Kind)

	ready := r.Hier.AccessData(e.addr, now, false, false)
	fresh := r.ownMem.LoadWord(in.Op, e.addr)
	r.commitWrite(in, fresh)
	r.setReady(s, ready, sim.ProducerLoad, groupWrites, true)
	r.Stats.Retired++
	*progress++
	r.ownPC++
	r.rs.drop(r.next)
	r.next++

	if fresh != e.val {
		// Value misspeculation: flush everything younger (§3.6).
		r.Stats.Multipass.SpecFlushes++
		flushed := r.rs.flushFrom(r.next)
		r.traceFlush(seq, flushed)
		r.Stats.Multipass.Reexecuted += uint64(flushed)
		r.Fetch.Flush(r.next, now+1+uint64(r.cfg.MispredictPenalty))
		if r.maxPeek > r.next {
			r.maxPeek = r.next
		}
		return false, nil // end the group; state beyond is gone
	}
	return true, nil
}

// commitExec executes one instruction architecturally (no RS entry).
// Returns redirect=true when issue must stop at a control transfer.
func (r *run) commitExec(in *isa.Inst, s *sim.StaticInst, d *arch.ExecEvent, qpTrue bool, groupWrites *sim.RegSet, now uint64) (bool, error) {
	seq := r.next
	r.Stats.Retired++
	r.rs.drop(r.next)
	r.next++
	r.ownPC++

	if s.IsBranch() {
		taken := qpTrue
		if taken != (d.Flags&arch.EvTaken != 0) {
			return false, fmt.Errorf("core: branch direction diverged from oracle at seq %d", seq)
		}
		if taken {
			r.ownPC = int(in.Target)
		}
		correct := r.Pred.Update(s.Addr, taken)
		if !correct {
			r.Fetch.Flush(r.next, now+1+uint64(r.cfg.MispredictPenalty))
		}
		return taken || !correct, nil
	}

	if !qpTrue {
		return false, nil // squashed
	}

	switch s.Kind {
	case isa.KindHalt:
		r.halted = true
		return true, nil
	case isa.KindNop, isa.KindRestart:
		return false, nil
	case isa.KindLoad:
		addr := arch.EffAddr(in, r.ownRF.Read(in.Src1))
		if addr != d.MemAddr {
			return false, fmt.Errorf("core: load address diverged from oracle at seq %d", seq)
		}
		ready := r.Hier.AccessData(addr, now, false, false)
		r.commitWrite(in, r.ownMem.LoadWord(in.Op, addr))
		r.setReady(s, ready, sim.ProducerLoad, groupWrites, true)
	case isa.KindStore:
		addr := arch.EffAddr(in, r.ownRF.Read(in.Src1))
		if addr != d.MemAddr {
			return false, fmt.Errorf("core: store address diverged from oracle at seq %d", seq)
		}
		r.ownMem.StoreWord(in.Op, addr, r.ownRF.Read(in.Src2))
		r.Hier.AccessData(addr, now, true, false)
	default:
		v := isa.Eval(in.Op, r.ownRF.Read(in.Src1), r.ownRF.Read(in.Src2), in.Imm)
		r.commitWrite(in, v)
		r.setReady(s, now+uint64(s.Lat), sim.ProducerOther, groupWrites, true)
	}
	return false, nil
}
