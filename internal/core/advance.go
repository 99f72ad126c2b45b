package core

import (
	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/sim"
)

// advOp is the result of reading an operand during advance execution:
// either invalid (unknown value; consumers must be deferred), or a value
// usable from cycle `ready`.
type advOp struct {
	valid bool
	ready uint64
	val   isa.Word
}

// readAdv reads a register for the advance stream: SRF when the A-bit is
// set (I-bit means invalid), otherwise the architectural file. An
// architectural register still owed by an in-flight load is invalid (this
// is the stall-on-use that advance execution bypasses); one owed by a
// short-latency operation is valid but not yet ready, stalling the in-order
// advance stream briefly.
func (r *run) readAdv(reg isa.Reg) advOp {
	if reg.IsNone() {
		return advOp{valid: true}
	}
	f := reg.Flat()
	if r.aBit[f] {
		if r.iBit[f] {
			return advOp{}
		}
		return advOp{valid: true, ready: r.advReadyAt[f], val: r.srf[f]}
	}
	if r.readyAt[f] > r.Now {
		if r.prodKind[f] == sim.ProducerLoad {
			return advOp{}
		}
		return advOp{valid: true, ready: r.readyAt[f], val: r.ownRF.Read(reg)}
	}
	return advOp{valid: true, val: r.ownRF.Read(reg)}
}

// writeAdv writes a speculative value into the SRF, setting the A-bit and
// clearing the I-bit.
func (r *run) writeAdv(reg isa.Reg, v isa.Word, ready uint64) {
	if reg.IsNone() || reg.IsZeroReg() {
		return
	}
	f := reg.Flat()
	r.aBit[f] = true
	r.iBit[f] = false
	r.srf[f] = v
	r.advReadyAt[f] = ready
}

// suppressDests marks the instruction's destinations invalid (A-bit +
// I-bit), deferring all consumers (§3.1.2).
func (r *run) suppressDests(s *sim.StaticInst) {
	for _, f := range s.Dsts() {
		r.aBit[f] = true
		r.iBit[f] = true
	}
}

// bumpPeek consumes one advance slot.
func (r *run) bumpPeek() {
	r.peek++
	if r.peek > r.maxPeek {
		r.maxPeek = r.peek
	}
}

// noteDeferral updates the consecutive-deferral run and reports whether the
// hardware restart heuristic (footnote 1 of §3.3) wants to restart the
// pass: a long deferral run with some pass progress behind it.
func (r *run) noteDeferral() bool {
	r.deferRun++
	return r.cfg.HardwareRestart &&
		r.deferRun >= r.cfg.RestartDeferralWindow &&
		r.peek > r.trigger+1
}

// noteExecution resets the deferral run.
func (r *run) noteExecution() { r.deferRun = 0 }

// advanceCycle runs one cycle of advance pre-execution (§3.1.2).
func (r *run) advanceCycle() (sim.Cycle, error) {
	r.Stats.Multipass.AdvanceCycles++
	r.Fetch.SetLimit(r.next + uint64(r.cfg.IQSize))

	var use isa.FUUse
	slots := 0
	executed := 0
	mp := &r.Stats.Multipass
	wasBlocked := r.passBlocked
	iqFullIdle := false
	// Step exits advance mode once now reaches stallUntil, so that is the
	// latest cycle an idle advance cycle may replay to.
	r.Skip.Note(r.stallUntil)

	for slots < r.cfg.Caps.MaxIssue && !r.passBlocked {
		if r.peek >= r.next+uint64(r.cfg.IQSize) {
			if slots == 0 {
				mp.IQFullCycles++
				iqFullIdle = true
			}
			break
		}
		if r.peek >= r.blockAt {
			// The fetched path beyond this point is wrong for the whole
			// episode; idle until rally.
			break
		}
		d, err := r.Stream.At(r.peek)
		if err != nil {
			return sim.Cycle{}, err
		}
		if d == nil {
			r.passBlocked = true
			break
		}
		in, s := &r.Prog.Insts[d.Idx], &r.Ops[d.Idx]
		if s.Kind == isa.KindHalt {
			// Never pre-execute past the end of the program.
			r.passBlocked = true
			break
		}
		fready, ok, err := r.Fetch.ReadyAt(r.peek)
		if err != nil {
			return sim.Cycle{}, err
		}
		if !ok {
			r.passBlocked = true
			break
		}
		if fready > r.Now {
			r.Skip.Note(fready)
			break // advance is fetch-limited this cycle
		}

		// Already processed in a previous pass: merge through the SRF
		// without re-execution (persistent results, §3.1.2).
		if e := r.rs.get(r.peek); e != nil {
			r.advanceMerge(in, s, e)
			slots++
			r.bumpPeek()
			continue
		}

		// Qualifying predicate.
		taken := d.Flags&arch.EvTaken != 0
		qp := r.readAdv(in.QP)
		if !qp.valid {
			if s.IsBranch() {
				// Unresolvable branch: follow the predictor. If the
				// prediction is actually wrong, everything fetched beyond
				// is wrong-path for the rest of the episode.
				if r.Pred.Predict(s.Addr) != taken {
					r.Skip.MarkDirty() // blockAt changes without a slot used
					r.blockAt = r.peek
					break
				}
				slots++
				r.bumpPeek()
				continue
			}
			r.suppressDests(s)
			mp.AdvanceDeferred++
			slots++
			r.bumpPeek()
			if r.noteDeferral() {
				r.restartPass()
				mp.HWRestarts++
				r.traceRestart("hardware")
				break
			}
			continue
		}
		if qp.ready > r.Now {
			r.Skip.Note(qp.ready)
			break // in-order wait for a short-latency producer
		}
		qpTrue := qp.val.Bool()

		if s.IsBranch() {
			if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
				break
			}
			if qpTrue != taken {
				// The advance value chain disagrees with the true path
				// (possible only through data speculation): wrong-path
				// guard ends the episode's reach here.
				r.Skip.MarkDirty() // blockAt changes without a slot used
				r.blockAt = r.peek
				break
			}
			use.AddClass(s.FU, s.Kind)
			correct := r.Pred.Update(s.Addr, taken)
			mp.EarlyResolved++
			if !correct {
				r.Fetch.Flush(r.peek+1, r.Now+1+uint64(r.cfg.MispredictPenalty))
			}
			r.rs.put(r.peek, rsEntry{readyCycle: r.Now, branchDone: true, branchTaken: taken})
			mp.AdvanceExecuted++
			executed++
			slots++
			r.bumpPeek()
			if taken {
				break // no pre-execution past a taken branch this cycle
			}
			continue
		}

		if !qpTrue {
			// Squashed by a (valid) false predicate: preserve that outcome.
			r.rs.put(r.peek, rsEntry{readyCycle: r.Now, squashed: true})
			slots++
			r.bumpPeek()
			continue
		}

		if s.Kind == isa.KindRestart {
			mp.RestartInstsSeen++
			src := r.readAdv(in.Src1)
			if !src.valid && !r.cfg.DisableRestart {
				r.restartPass()
				mp.Restarts++
				r.traceRestart("compiler")
				break // the restart consumes the rest of the cycle
			}
			slots++
			r.bumpPeek()
			continue
		}

		if s.IsStore() {
			if !r.advanceStore(in, s, d.MemAddr, &use, &slots, &executed) {
				break
			}
			continue
		}

		// Generic operand read for loads and computation.
		var src1, src2 advOp
		src1 = r.readAdv(in.Src1)
		if !s.IsLoad() {
			src2 = r.readAdv(in.Src2)
		} else {
			src2 = advOp{valid: true}
		}
		if !src1.valid || !src2.valid {
			r.suppressDests(s)
			mp.AdvanceDeferred++
			slots++
			r.bumpPeek()
			if r.noteDeferral() {
				r.restartPass()
				mp.HWRestarts++
				r.traceRestart("hardware")
				break
			}
			continue
		}
		if src1.ready > r.Now || src2.ready > r.Now {
			if src1.ready > r.Now {
				r.Skip.Note(src1.ready)
			}
			if src2.ready > r.Now {
				r.Skip.Note(src2.ready)
			}
			break // in-order wait
		}
		if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
			break
		}

		if s.IsLoad() {
			r.advanceLoad(in, s, &use, &slots, &executed, src1.val)
			continue
		}

		// Computation: execute speculatively, preserve the result.
		use.AddClass(s.FU, s.Kind)
		v := isa.Eval(in.Op, src1.val, src2.val, in.Imm)
		ready := r.Now + uint64(s.Lat)
		r.writeAdv(in.Dst, v, ready)
		if !in.Dst2.IsNone() {
			r.writeAdv(in.Dst2, isa.BoolWord(!v.Bool()), ready)
		}
		r.rs.put(r.peek, rsEntry{readyCycle: ready, val: v, hasVal: !in.Dst.IsNone()})
		mp.AdvanceExecuted++
		executed++
		slots++
		r.bumpPeek()
	}

	r.idleIQFull = iqFullIdle
	if executed > 0 {
		return sim.Cycle{Cat: sim.StallExecution, Progress: true}, nil
	}
	// Cycles with only merges or deferrals are charged to the latency that
	// triggered advance mode (always a load). With no slot consumed and the
	// blocked flag unflipped the cycle is Idle: every mutation path above
	// passes through slots++, sets passBlocked, or marked the skip state
	// dirty (blockAt, restartPass), so it replays identically until the
	// earliest noted deadline (at the latest, the episode exit at
	// stallUntil).
	return sim.Cycle{Cat: sim.StallLoad, Idle: slots == 0 && r.passBlocked == wasBlocked}, nil
}

// advanceMerge re-applies a previous pass's RS entry to the SRF.
func (r *run) advanceMerge(in *isa.Inst, s *sim.StaticInst, e *rsEntry) {
	switch {
	case e.squashed || e.branchDone:
		// Nothing to propagate.
	case e.readyCycle > r.Now:
		// The preserved result (typically a missing load) has not arrived
		// yet: consumers stay deferred this pass.
		r.suppressDests(s)
	default:
		if e.hasVal {
			ready := e.readyCycle
			if ready < r.Now {
				ready = r.Now
			}
			r.writeAdv(in.Dst, e.val, ready)
			if !in.Dst2.IsNone() {
				r.writeAdv(in.Dst2, isa.BoolWord(!e.val.Bool()), ready)
			}
		}
		if e.isStore {
			// Keep forwarding across passes: the ASC was cleared at the
			// pass boundary.
			r.asc.insert(e.addr, in.Op.MemBytes(), e.val, false)
		}
	}
}

// advanceStore processes a store in advance mode (§3.6). Returns false when
// the cycle's group must end.
func (r *run) advanceStore(in *isa.Inst, s *sim.StaticInst, trueAddr uint32, use *isa.FUUse, slots, executed *int) bool {
	mp := &r.Stats.Multipass
	addrOp := r.readAdv(in.Src1)
	if !addrOp.valid {
		// Unknown address: every later advance load is data-speculative.
		r.storeDeferred = true
		mp.DeferredStores++
		mp.AdvanceDeferred++
		*slots++
		r.bumpPeek()
		return true
	}
	if addrOp.ready > r.Now {
		r.Skip.Note(addrOp.ready)
		return false
	}
	addr := addrOp.val.Uint32() + uint32(in.Imm)
	if addr != trueAddr {
		// Data-speculation can produce a different address than the true
		// path; poison the true location conservatively as well.
		r.storeDeferred = true
	}
	dataOp := r.readAdv(in.Src2)
	if !dataOp.valid {
		if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
			return false
		}
		use.AddClass(s.FU, s.Kind)
		// Address known, data unknown: poison the location so loads to it
		// are suppressed ("the result of a load to the same location is
		// also invalid").
		r.asc.insert(addr, in.Op.MemBytes(), 0, true)
		mp.AdvanceDeferred++
		*slots++
		r.bumpPeek()
		return true
	}
	if dataOp.ready > r.Now {
		r.Skip.Note(dataOp.ready)
		return false
	}
	if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
		return false
	}
	use.AddClass(s.FU, s.Kind)
	r.asc.insert(addr, in.Op.MemBytes(), dataOp.val, false)
	r.rs.put(r.peek, rsEntry{readyCycle: r.Now, val: dataOp.val, isStore: true, addr: addr, hasAddr: true})
	mp.AdvanceExecuted++
	*executed++
	*slots++
	r.bumpPeek()
	return true
}

// advanceLoad processes a load in advance mode: ASC forwarding, hierarchy
// access (the prefetching effect), the §3.5 WAW rule for L1 misses, and
// S-bit marking for data-speculative cases.
func (r *run) advanceLoad(in *isa.Inst, s *sim.StaticInst, use *isa.FUUse, slots, executed *int, base isa.Word) {
	mp := &r.Stats.Multipass
	addr := base.Uint32() + uint32(in.Imm)
	size := in.Op.MemBytes()

	res, fwd := r.asc.lookup(addr, size)
	switch res {
	case ascConflict:
		r.suppressDests(s)
		mp.AdvanceDeferred++
		*slots++
		r.bumpPeek()
		return
	case ascHit:
		use.AddClass(s.FU, s.Kind)
		ready := r.Now + uint64(s.Lat)
		r.writeAdv(in.Dst, fwd, ready)
		r.rs.put(r.peek, rsEntry{readyCycle: ready, val: fwd, hasVal: true, addr: addr, hasAddr: true})
		mp.ASCHits++
		mp.AdvanceExecuted++
		*executed++
		*slots++
		r.bumpPeek()
		return
	}

	spec := r.storeDeferred || r.asc.setReplaced(addr)
	use.AddClass(s.FU, s.Kind)
	ready := r.Hier.AccessData(addr, r.Now, false, true)
	val := r.ownMem.LoadWord(in.Op, addr)
	r.rs.put(r.peek, rsEntry{readyCycle: ready, val: val, hasVal: true, spec: spec, addr: addr, hasAddr: true})
	if spec {
		mp.SpecLoads++
	}
	l1Lat := uint64(r.cfg.Hier.L1D.Latency)
	if ready <= r.Now+l1Lat {
		r.writeAdv(in.Dst, val, ready)
	} else {
		// §3.5: advance loads that miss L1 do not write back to the SRF;
		// their consumers defer to a later pass.
		r.suppressDests(s)
	}
	mp.AdvanceExecuted++
	*executed++
	*slots++
	r.bumpPeek()
}
