package arch

import (
	"encoding/binary"
	"fmt"

	"multipass/internal/isa"
)

// This file implements the direct-threaded superblock interpreter: the
// program is pre-decoded once into a flat micro-op array in program order,
// with register operands resolved to flat indices, immediate forms
// specialized, and the dominant back-edge pattern (compare feeding the very
// next branch) fused into a single micro-op. Execution is then a tight
// dispatch loop over dense codes — no per-step PC bounds check, no operand
// shape re-decode, no Reg.Flat() calls — which is what the step-wise
// State.Step pays on every instruction. The step-wise interpreter remains
// the semantic reference (RunStepwise); the differential tests in
// internal/xcheck prove the two byte-identical over the progen space.

// Flat register working-array layout. Two extra slots beyond the
// architectural registers make operand handling branch-free:
//
//   - zeroSlot reads as zero value / clear NaT and is never written; absent
//     source operands resolve to it (RegFile.Read(None) == 0).
//   - discardSlot is a write sink; absent and hardwired (r0, p0) destinations
//     resolve to it, which reproduces RegFile.Write discarding those writes.
const (
	zeroSlot    = isa.NumFlatRegs
	discardSlot = isa.NumFlatRegs + 1
	numSlots    = isa.NumFlatRegs + 2
)

// Dispatch codes. uBr and uCmpBr come first: every other code shares the
// generic qualifying-predicate squash prologue, while branches fold the
// predicate into the taken decision (an architecturally not-taken branch)
// and fused pairs require an always-true compare predicate by construction.
const (
	uBr uint8 = iota
	uCmpBr
	uNop // also restart and unknown opcodes: no architectural effect
	uHalt
	uLd
	uLdD2 // load with an (invalid-shape) real Dst2: complement write kept
	uSt
	uAdd
	uSub
	uAnd
	uOr
	uXor
	uShl
	uShr
	uSar
	uAddI
	uSubI
	uAndI
	uOrI
	uXorI
	uShlI
	uShrI
	uSarI
	uMov
	uMovI
	uCmp // all integer and FP compares; sub holds the isa.Op
	uMul
	uDiv
	uRem
	uFAdd
	uFSub
	uFMul
	uFDiv
	uFMov
	uFNeg
	uCvtIF
	uCvtFI
	uEvalGen // non-compare eval op with a real Dst2: fall back to isa.Eval
)

// sbOp flag bits.
const (
	// fBrOnDst2 marks a fused compare+branch whose branch predicate is the
	// compare's complement destination (Dst2).
	fBrOnDst2 uint8 = 1 << iota
)

// sbOp is one pre-decoded micro-op. Register fields are indices into the
// flat working arrays (including the zero/discard slots); dst2n is the NaT
// propagation target for Dst2, which differs from dst2 only for the
// irregular Dst==None case (Step's writeDst skips the complement value
// write, but NaT propagation still reaches Dst2).
type sbOp struct {
	code  uint8
	sub   uint8 // memory width for uLd/uSt; isa.Op for uCmp/uCmpBr/uEvalGen
	flags uint8
	qp    uint16
	dst   uint16
	dst2  uint16
	dst2n uint16
	src1  uint16
	src2  uint16
	imm   int32
	idx   int32 // instruction index of this op (the compare for fused pairs)
	// Branch fields (uBr, uCmpBr).
	target int32 // architectural target instruction index
	tOp    int32 // resolved op index of target; -1 if out of program
}

// SBProgram is a program pre-decoded into superblock micro-ops. It is
// immutable after construction and safe for concurrent Exec calls (each call
// carries its own architectural state).
type SBProgram struct {
	p    *isa.Program
	ops  []sbOp
	opAt []int32 // instruction index -> op index; -1 for the branch half of a fused pair
}

// ExecCounts classifies the instructions retired by one Exec call, with the
// same rules as Run: loads and stores count only when not squashed, every
// branch counts (a squashed branch is architecturally not taken).
type ExecCounts struct {
	Loads    uint64
	Stores   uint64
	Branches uint64
	Taken    uint64
}

// Event flag bits for ExecEvent.Flags.
const (
	EvLoad uint8 = 1 << iota
	EvStore
	EvBranch
	EvTaken
	EvSquash // qualifying predicate false: retired with no effect
)

// ExecEvent is one retired instruction's footprint: its instruction index
// (the fetch address is isa.InstAddr(Idx)), the effective address for
// non-squashed memory operations, and classification flags. Together with
// the instruction itself an event determines everything State.Step's
// StepInfo reports about control flow and memory: a squashed instruction
// carries only EvSquash (a branch is never squashed, it is architecturally
// not taken), a halt is a non-squashed halt instruction, and the next index
// is the branch target when EvTaken is set and Idx+1 otherwise. The
// checkpoint builder in internal/sim replays these against its cache
// hierarchy and predictor, and trace decode expands them into dynamic
// instructions, which keeps package arch free of mem/bpred/sim imports.
type ExecEvent struct {
	MemAddr uint32
	Idx     int32
	Flags   uint8
}

// stepEvent is the event State.Step's report of one instruction maps to.
func stepEvent(info *StepInfo) ExecEvent {
	e := ExecEvent{Idx: int32(info.Index)}
	switch {
	case info.Squashed:
		e.Flags = EvSquash
	case info.IsLoad:
		e.Flags, e.MemAddr = EvLoad, info.MemAddr
	case info.IsStore:
		e.Flags, e.MemAddr = EvStore, info.MemAddr
	case info.IsBranch:
		e.Flags = EvBranch
		if info.Taken {
			e.Flags |= EvTaken
		}
	}
	return e
}

// NewSBProgram pre-decodes p. Construction is a two-pass linear scan:
// discover block leaders (entry, branch targets, branch fall-throughs),
// decode each instruction into a micro-op fusing compare+branch pairs where
// legal, then resolve branch targets to op indices.
func NewSBProgram(p *isa.Program) *SBProgram {
	n := len(p.Insts)
	sb := &SBProgram{p: p, opAt: make([]int32, n), ops: make([]sbOp, 0, n)}

	// Leaders: a fused pair may not swallow a branch that is itself a branch
	// target, because a jump landing on the branch would have to re-enter the
	// middle of a micro-op.
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for i := range p.Insts {
		if p.Insts[i].Op.IsBranch() {
			if t := int(p.Insts[i].Target); t >= 0 && t < n {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}

	for i := 0; i < n; i++ {
		in := &p.Insts[i]
		sb.opAt[i] = int32(len(sb.ops))
		o := sbOp{
			qp:   mapSrc(in.QP),
			src1: mapSrc(in.Src1),
			src2: mapSrc(in.Src2),
			imm:  in.Imm,
			idx:  int32(i),
			tOp:  -1,
		}
		o.dst, o.dst2, o.dst2n = mapDsts(in)

		// Compare+branch fusion. Legal when the compare is unconditional
		// (QP == p0, so it can never be squashed), the next instruction is a
		// branch predicated exactly on one of the compare's destinations
		// (value or complement, not hardwired), and that branch is not a
		// block leader (no control flow may enter between the pair). NaT
		// semantics survive fusion because Step's branch decision reads the
		// predicate *value* only — writeDst stores the computed value before
		// NaT propagation, and ReadNaT is never consulted by the branch.
		if isCompareOp(in.Op) && in.QP == isa.P0 && i+1 < n {
			br := &p.Insts[i+1]
			if br.Op.IsBranch() && !leader[i+1] && !br.QP.IsNone() && !br.QP.IsZeroReg() {
				onDst2, ok := false, false
				// Dst2 is checked first: if Dst == Dst2 the complement write
				// lands last and wins, exactly as in writeDst.
				switch {
				case br.QP == in.Dst2 && !in.Dst.IsNone():
					onDst2, ok = true, true
				case br.QP == in.Dst:
					ok = true
				}
				if ok {
					o.code = uCmpBr
					o.sub = uint8(in.Op)
					if onDst2 {
						o.flags |= fBrOnDst2
					}
					o.target = br.Target
					sb.ops = append(sb.ops, o)
					i++
					sb.opAt[i] = -1 // interior of a fused pair
					continue
				}
			}
		}

		switch {
		case in.Op.IsBranch():
			o.code = uBr
			o.target = in.Target
		case int(in.Op) >= isa.NumOps:
			o.code = uNop
		default:
			switch in.Op.Kind() {
			case isa.KindNop, isa.KindRestart:
				o.code = uNop
			case isa.KindHalt:
				o.code = uHalt
			case isa.KindLoad:
				o.code = uLd
				if o.dst2 != discardSlot {
					o.code = uLdD2
				}
				o.sub = uint8(in.Op.MemBytes())
			case isa.KindStore:
				o.code = uSt
				o.sub = uint8(in.Op.MemBytes())
			default:
				o.code = evalCode(in.Op)
				o.sub = uint8(in.Op)
				if o.dst2 != discardSlot && o.code != uCmp {
					o.code = uEvalGen
				}
			}
		}
		sb.ops = append(sb.ops, o)
	}

	// Resolve branch targets to op indices. In-range targets are always
	// leaders, so they can never point at the swallowed half of a fused pair.
	for j := range sb.ops {
		o := &sb.ops[j]
		if o.code == uBr || o.code == uCmpBr {
			if t := int(o.target); t >= 0 && t < n {
				o.tOp = sb.opAt[t]
			}
		}
	}
	return sb
}

// Program returns the pre-decoded program.
func (sb *SBProgram) Program() *isa.Program { return sb.p }

func mapSrc(r isa.Reg) uint16 {
	if f := r.Flat(); f >= 0 {
		return uint16(f)
	}
	return zeroSlot
}

// mapDsts resolves an instruction's destination operands to working-array
// slots replicating writeDst plus NaT propagation exactly:
//
//   - dst receives the primary value and its NaT; None and hardwired
//     destinations discard.
//   - dst2 receives the complement value, written only when Dst is real
//     (writeDst returns before the complement if Dst is None).
//   - dst2n receives Dst2's propagated NaT, which Step applies regardless of
//     whether Dst was real.
func mapDsts(in *isa.Inst) (dst, dst2, dst2n uint16) {
	dst, dst2, dst2n = discardSlot, discardSlot, discardSlot
	d2real := !in.Dst2.IsNone() && !in.Dst2.IsZeroReg()
	if !in.Dst.IsNone() {
		if !in.Dst.IsZeroReg() {
			dst = uint16(in.Dst.Flat())
		}
		if d2real {
			dst2 = uint16(in.Dst2.Flat())
		}
	}
	if d2real {
		dst2n = uint16(in.Dst2.Flat())
	}
	return dst, dst2, dst2n
}

func isCompareOp(op isa.Op) bool {
	switch op {
	case isa.OpCmpEq, isa.OpCmpNe, isa.OpCmpLt, isa.OpCmpLe, isa.OpCmpLtU,
		isa.OpCmpLeU, isa.OpCmpEqI, isa.OpCmpNeI, isa.OpCmpLtI, isa.OpCmpLeI,
		isa.OpCmpLtUI, isa.OpFCmpEq, isa.OpFCmpLt, isa.OpFCmpLe:
		return true
	}
	return false
}

var evalCodes = [isa.NumOps]uint8{
	isa.OpAdd: uAdd, isa.OpSub: uSub, isa.OpAnd: uAnd, isa.OpOr: uOr,
	isa.OpXor: uXor, isa.OpShl: uShl, isa.OpShr: uShr, isa.OpSar: uSar,
	isa.OpAddI: uAddI, isa.OpSubI: uSubI, isa.OpAndI: uAndI, isa.OpOrI: uOrI,
	isa.OpXorI: uXorI, isa.OpShlI: uShlI, isa.OpShrI: uShrI, isa.OpSarI: uSarI,
	isa.OpMov: uMov, isa.OpMovI: uMovI,
	isa.OpCmpEq: uCmp, isa.OpCmpNe: uCmp, isa.OpCmpLt: uCmp, isa.OpCmpLe: uCmp,
	isa.OpCmpLtU: uCmp, isa.OpCmpLeU: uCmp, isa.OpCmpEqI: uCmp, isa.OpCmpNeI: uCmp,
	isa.OpCmpLtI: uCmp, isa.OpCmpLeI: uCmp, isa.OpCmpLtUI: uCmp,
	isa.OpMul: uMul, isa.OpDiv: uDiv, isa.OpRem: uRem,
	isa.OpFAdd: uFAdd, isa.OpFSub: uFSub, isa.OpFMul: uFMul, isa.OpFDiv: uFDiv,
	isa.OpFMov: uFMov, isa.OpFNeg: uFNeg, isa.OpCvtIF: uCvtIF, isa.OpCvtFI: uCvtFI,
	isa.OpFCmpEq: uCmp, isa.OpFCmpLt: uCmp, isa.OpFCmpLe: uCmp,
}

func evalCode(op isa.Op) uint8 { return evalCodes[op] }

// cmpTrue evaluates a compare operation's condition, mirroring isa.Eval's
// compare cases bit for bit.
func cmpTrue(op uint8, a, b isa.Word, imm int32) bool {
	ai, bi := a.Uint32(), b.Uint32()
	iu := uint32(imm)
	switch isa.Op(op) {
	case isa.OpCmpEq:
		return ai == bi
	case isa.OpCmpNe:
		return ai != bi
	case isa.OpCmpLt:
		return int32(ai) < int32(bi)
	case isa.OpCmpLe:
		return int32(ai) <= int32(bi)
	case isa.OpCmpLtU:
		return ai < bi
	case isa.OpCmpLeU:
		return ai <= bi
	case isa.OpCmpEqI:
		return ai == iu
	case isa.OpCmpNeI:
		return ai != iu
	case isa.OpCmpLtI:
		return int32(ai) < imm
	case isa.OpCmpLeI:
		return int32(ai) <= imm
	case isa.OpCmpLtUI:
		return ai < iu
	case isa.OpFCmpEq:
		return a.Float64() == b.Float64()
	case isa.OpFCmpLt:
		return a.Float64() < b.Float64()
	case isa.OpFCmpLe:
		return a.Float64() <= b.Float64()
	}
	return false
}

// Exec runs the superblock dispatch loop over st until the program halts or
// st.Retired reaches stopAt, whichever comes first. State is synchronized
// back into st on every exit path, including errors, so Exec composes with
// Step at any boundary.
func (sb *SBProgram) Exec(st *State, stopAt uint64) (ExecCounts, error) {
	c, _, err := sb.exec(st, stopAt, nil)
	return c, err
}

// ExecTrace is Exec recording one ExecEvent per retired instruction into
// evs. It additionally stops when fewer than two event slots remain (a fused
// pair needs two), returning the number of events written; the caller
// replays them and calls again.
func (sb *SBProgram) ExecTrace(st *State, stopAt uint64, evs []ExecEvent) (ExecCounts, int, error) {
	return sb.exec(st, stopAt, evs)
}

func (sb *SBProgram) exec(st *State, stopAt uint64, evs []ExecEvent) (ExecCounts, int, error) {
	var c ExecCounts
	if st.Halted {
		return c, 0, fmt.Errorf("arch: step after halt")
	}
	nInsts := len(sb.p.Insts)
	if st.PC < 0 || st.PC >= nInsts {
		if st.Retired >= stopAt {
			return c, 0, nil
		}
		return c, 0, fmt.Errorf("arch: PC %d outside program of %d instructions", st.PC, nInsts)
	}

	rec := evs != nil
	nev := 0
	retired := st.Retired
	mem := st.Mem
	ops := sb.ops

	// Local direct-mapped page translation cache for the inlined memory fast
	// paths below: kernels alternate between a handful of hot pages (input
	// buffer, output buffer, tables), which thrashes a one-entry cache. Page
	// pointers are stable for a Memory's lifetime, so entries stay valid
	// across the slow paths (which go through mem's own methods and keep its
	// internal cache coherent independently). A nil pg marks an empty entry;
	// unallocated pages are never cached.
	const tlbSize = 64
	var tlbPN [tlbSize]uint32
	var tlbPG [tlbSize]*[pageSize]byte

	// Working register arrays: architectural registers plus the zero and
	// discard slots. Copied in once per call and synchronized back on exit.
	var vals [numSlots]isa.Word
	var nat [numSlots]bool
	copy(vals[:isa.NumFlatRegs], st.RF.vals[:])
	copy(nat[:isa.NumFlatRegs], st.RF.nat[:])

	// NaT bits only propagate — nothing in architectural execution originates
	// one — so a state with no NaT set can never grow one. Functional runs
	// from reset are always in that regime, and skipping the per-op NaT
	// bookkeeping there removes two loads and a store from every ALU op.
	natLive := false
	for _, b := range st.RF.nat {
		if b {
			natLive = true
			break
		}
	}

	sync := func(pc int) {
		copy(st.RF.vals[:], vals[:isa.NumFlatRegs])
		copy(st.RF.nat[:], nat[:isa.NumFlatRegs])
		st.PC = pc
		st.Retired = retired
	}

	// stepOne runs a single instruction through the step-wise reference
	// interpreter, used when the dispatch loop cannot make exact progress:
	// resuming at the swallowed half of a fused pair, or a fused pair that
	// would overshoot stopAt (it retires two instructions at once).
	stepOne := func(pc int) (cont bool, err error) {
		sync(pc)
		info, err := st.Step(sb.p)
		if err != nil {
			return false, err
		}
		copy(vals[:isa.NumFlatRegs], st.RF.vals[:])
		copy(nat[:isa.NumFlatRegs], st.RF.nat[:])
		retired = st.Retired
		switch {
		case info.IsLoad:
			c.Loads++
		case info.IsStore:
			c.Stores++
		case info.IsBranch:
			c.Branches++
			if info.Taken {
				c.Taken++
			}
		}
		if rec {
			evs[nev] = stepEvent(&info)
			nev++
		}
		return !st.Halted, nil
	}

	// Entry may land on the swallowed branch of a fused pair (a checkpoint
	// captured between the two): one reference step re-aligns to an op
	// boundary.
	oi := int(sb.opAt[st.PC])
	if oi < 0 {
		if retired >= stopAt || (rec && len(evs) == 0) {
			return c, 0, nil
		}
		cont, err := stepOne(st.PC)
		if err != nil || !cont {
			return c, nev, err
		}
		if st.PC < 0 || st.PC >= nInsts {
			// Mirror the step-wise loop: the branch retired, the error
			// surfaces at the next fetch.
			if retired >= stopAt {
				return c, nev, nil
			}
			return c, nev, fmt.Errorf("arch: PC %d outside program of %d instructions", st.PC, nInsts)
		}
		oi = int(sb.opAt[st.PC])
	}

	for {
		if retired >= stopAt {
			sync(opPC(ops, oi, nInsts))
			return c, nev, nil
		}
		if rec && len(evs)-nev < 2 {
			sync(opPC(ops, oi, nInsts))
			return c, nev, nil
		}
		if oi >= len(ops) {
			sync(nInsts)
			return c, nev, fmt.Errorf("arch: PC %d outside program of %d instructions", nInsts, nInsts)
		}
		o := &ops[oi]

		if o.code >= uNop {
			// Generic qualifying-predicate squash: retire with no effect.
			if vals[o.qp] == 0 {
				retired++
				if rec {
					evs[nev] = ExecEvent{Idx: o.idx, Flags: EvSquash}
					nev++
				}
				oi++
				continue
			}
		}

		evFlags := uint8(0)
		evAddr := uint32(0)

		switch o.code {
		case uBr:
			retired++
			c.Branches++
			taken := vals[o.qp] != 0
			if rec {
				f := EvBranch
				if taken {
					f |= EvTaken
				}
				evs[nev] = ExecEvent{Idx: o.idx, Flags: f}
				nev++
			}
			if taken {
				c.Taken++
				if o.tOp < 0 {
					sync(int(o.target))
					if retired >= stopAt {
						return c, nev, nil
					}
					return c, nev, fmt.Errorf("arch: PC %d outside program of %d instructions", int(o.target), nInsts)
				}
				oi = int(o.tOp)
			} else {
				oi++
			}
			continue

		case uCmpBr:
			if retired+2 > stopAt {
				// The pair would overshoot the boundary: execute the compare
				// alone through the reference interpreter.
				cont, err := stepOne(int(o.idx))
				if err != nil || !cont {
					return c, nev, err
				}
				oi = int(sb.opAt[st.PC]) // the swallowed branch: -1 handled at loop top via stop
				if oi < 0 {
					// retired == stopAt now by construction.
					return c, nev, nil
				}
				continue
			}
			t := cmpTrue(o.sub, vals[o.src1], vals[o.src2], o.imm)
			vals[o.dst] = isa.BoolWord(t)
			vals[o.dst2] = isa.BoolWord(!t)
			if natLive {
				nat[o.dst] = false
				nat[o.dst2] = false
				if nat[o.src1] || nat[o.src2] {
					nat[o.dst] = true
					nat[o.dst2n] = true
				}
			}
			retired += 2
			c.Branches++
			cond := t
			if o.flags&fBrOnDst2 != 0 {
				cond = !t
			}
			if rec {
				evs[nev] = ExecEvent{Idx: o.idx}
				f := EvBranch
				if cond {
					f |= EvTaken
				}
				evs[nev+1] = ExecEvent{Idx: o.idx + 1, Flags: f}
				nev += 2
			}
			if cond {
				c.Taken++
				if o.tOp < 0 {
					sync(int(o.target))
					if retired >= stopAt {
						return c, nev, nil
					}
					return c, nev, fmt.Errorf("arch: PC %d outside program of %d instructions", int(o.target), nInsts)
				}
				oi = int(o.tOp)
			} else {
				oi++
			}
			continue

		case uNop:
			// No architectural effect.

		case uHalt:
			retired++
			if rec {
				evs[nev] = ExecEvent{Idx: o.idx}
				nev++
			}
			st.Halted = true
			sync(int(o.idx) + 1)
			return c, nev, nil

		case uLd:
			addr := vals[o.src1].Uint32() + uint32(o.imm)
			var v isa.Word
			if off := addr & pageMask; off+uint32(o.sub) <= pageSize {
				pn := addr >> pageShift
				ti := pn & (tlbSize - 1)
				pg := tlbPG[ti]
				if pg == nil || tlbPN[ti] != pn {
					if pg = mem.page(addr, false); pg != nil {
						tlbPN[ti], tlbPG[ti] = pn, pg
					}
				}
				if pg != nil {
					switch o.sub {
					case 4:
						v = isa.Word(binary.LittleEndian.Uint32(pg[off:]))
					case 8:
						v = isa.Word(binary.LittleEndian.Uint64(pg[off:]))
					case 1:
						v = isa.Word(pg[off])
					default:
						v = isa.Word(binary.LittleEndian.Uint16(pg[off:]))
					}
				}
			} else {
				v = isa.Word(mem.Load(addr, int(o.sub)))
			}
			vals[o.dst] = v
			if natLive {
				nat[o.dst] = nat[o.src1]
			}
			c.Loads++
			evFlags, evAddr = EvLoad, addr

		case uLdD2:
			addr := vals[o.src1].Uint32() + uint32(o.imm)
			v := isa.Word(mem.Load(addr, int(o.sub)))
			vals[o.dst] = v
			vals[o.dst2] = isa.BoolWord(!v.Bool())
			if natLive {
				nat[o.dst] = nat[o.src1]
				nat[o.dst2] = false
			}
			c.Loads++
			evFlags, evAddr = EvLoad, addr

		case uSt:
			addr := vals[o.src1].Uint32() + uint32(o.imm)
			v := uint64(vals[o.src2])
			if off := addr & pageMask; off+uint32(o.sub) <= pageSize {
				pn := addr >> pageShift
				ti := pn & (tlbSize - 1)
				pg := tlbPG[ti]
				if pg == nil || tlbPN[ti] != pn {
					pg = mem.page(addr, true)
					tlbPN[ti], tlbPG[ti] = pn, pg
				}
				mem.markStore(addr)
				switch o.sub {
				case 4:
					binary.LittleEndian.PutUint32(pg[off:], uint32(v))
				case 8:
					binary.LittleEndian.PutUint64(pg[off:], v)
				case 1:
					pg[off] = byte(v)
				default:
					binary.LittleEndian.PutUint16(pg[off:], uint16(v))
				}
			} else {
				mem.Store(addr, int(o.sub), v)
			}
			c.Stores++
			evFlags, evAddr = EvStore, addr

		case uAdd:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()+vals[o.src2].Uint32()))
		case uSub:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()-vals[o.src2].Uint32()))
		case uAnd:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()&vals[o.src2].Uint32()))
		case uOr:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()|vals[o.src2].Uint32()))
		case uXor:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()^vals[o.src2].Uint32()))
		case uShl:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()<<(vals[o.src2].Uint32()&31)))
		case uShr:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()>>(vals[o.src2].Uint32()&31)))
		case uSar:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(uint32(vals[o.src1].Int32()>>(vals[o.src2].Uint32()&31))))
		case uAddI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()+uint32(o.imm)))
		case uSubI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()-uint32(o.imm)))
		case uAndI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()&uint32(o.imm)))
		case uOrI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()|uint32(o.imm)))
		case uXorI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()^uint32(o.imm)))
		case uShlI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()<<(uint32(o.imm)&31)))
		case uShrI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()>>(uint32(o.imm)&31)))
		case uSarI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(uint32(vals[o.src1].Int32()>>(uint32(o.imm)&31))))
		case uMov:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()))
		case uMovI:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(uint32(o.imm)))

		case uCmp:
			t := cmpTrue(o.sub, vals[o.src1], vals[o.src2], o.imm)
			vals[o.dst] = isa.BoolWord(t)
			vals[o.dst2] = isa.BoolWord(!t)
			if natLive {
				nat[o.dst] = false
				nat[o.dst2] = false
				if nat[o.src1] || nat[o.src2] {
					nat[o.dst] = true
					nat[o.dst2n] = true
				}
			}

		case uMul:
			writeInt(&vals, &nat, natLive, o, isa.IntWord(vals[o.src1].Uint32()*vals[o.src2].Uint32()))
		case uDiv:
			a, b := vals[o.src1].Uint32(), vals[o.src2].Uint32()
			var v isa.Word
			if b == 0 {
				v = isa.IntWord(0)
			} else {
				v = isa.IntWord(uint32(int32(a) / int32(b)))
			}
			writeInt(&vals, &nat, natLive, o, v)
		case uRem:
			a, b := vals[o.src1].Uint32(), vals[o.src2].Uint32()
			var v isa.Word
			if b == 0 {
				v = isa.IntWord(a)
			} else {
				v = isa.IntWord(uint32(int32(a) % int32(b)))
			}
			writeInt(&vals, &nat, natLive, o, v)

		case uFAdd:
			writeInt(&vals, &nat, natLive, o, isa.FPWord(vals[o.src1].Float64()+vals[o.src2].Float64()))
		case uFSub:
			writeInt(&vals, &nat, natLive, o, isa.FPWord(vals[o.src1].Float64()-vals[o.src2].Float64()))
		case uFMul:
			writeInt(&vals, &nat, natLive, o, isa.FPWord(vals[o.src1].Float64()*vals[o.src2].Float64()))
		case uFDiv:
			writeInt(&vals, &nat, natLive, o, isa.FPWord(vals[o.src1].Float64()/vals[o.src2].Float64()))
		case uFMov:
			writeInt(&vals, &nat, natLive, o, vals[o.src1])
		case uFNeg:
			writeInt(&vals, &nat, natLive, o, isa.FPWord(-vals[o.src1].Float64()))
		case uCvtIF, uCvtFI, uEvalGen:
			// Rare conversions and irregular shapes go through isa.Eval so the
			// saturation corner cases live in exactly one place.
			v := isa.Eval(isa.Op(o.sub), vals[o.src1], vals[o.src2], o.imm)
			vals[o.dst] = v
			if o.code == uEvalGen {
				vals[o.dst2] = isa.BoolWord(!v.Bool())
			}
			if natLive {
				nat[o.dst] = false
				if o.code == uEvalGen {
					nat[o.dst2] = false
				}
				if nat[o.src1] || nat[o.src2] {
					nat[o.dst] = true
					nat[o.dst2n] = true
				}
			}
		}

		retired++
		if rec {
			evs[nev] = ExecEvent{MemAddr: evAddr, Idx: o.idx, Flags: evFlags}
			nev++
		}
		oi++
	}
}

// writeInt commits a single-destination result with NaT propagation from
// both sources, the common case for every ALU/FP op. NaT bookkeeping is
// skipped entirely when the state has no NaT bits live.
func writeInt(vals *[numSlots]isa.Word, nat *[numSlots]bool, natLive bool, o *sbOp, v isa.Word) {
	vals[o.dst] = v
	if natLive {
		nat[o.dst] = false
		if nat[o.src1] || nat[o.src2] {
			nat[o.dst] = true
			nat[o.dst2n] = true
		}
	}
}

// opPC returns the instruction index the op index corresponds to; one past
// the end of the op array maps to one past the program.
func opPC(ops []sbOp, oi, nInsts int) int {
	if oi >= len(ops) {
		return nInsts
	}
	return int(ops[oi].idx)
}

// Run interprets the pre-decoded program to completion on mem, with the
// same contract as the package-level Run.
func (sb *SBProgram) Run(mem *Memory, limit uint64) (*RunResult, error) {
	s := NewState(mem)
	res := &RunResult{State: s}
	for !s.Halted {
		if s.Retired >= limit {
			return res, fmt.Errorf("arch: instruction limit %d exceeded at PC %d", limit, s.PC)
		}
		c, err := sb.Exec(s, limit)
		res.Loads += c.Loads
		res.Stores += c.Stores
		res.Branches += c.Branches
		res.Taken += c.Taken
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
