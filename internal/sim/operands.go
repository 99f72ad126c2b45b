package sim

import "multipass/internal/isa"

// StaticInst is what the cycle loops read of one static instruction, decoded
// once per run so that no loop re-derives it per dynamic instruction.
// Register operands are flat indices (isa.Reg.Flat) with the hardwired
// registers r0 and p0 left out: nothing ever waits on them, and writes to
// them are discarded. Each list keeps the order of isa.Inst.Reads or
// isa.Inst.Writes, because the first operand that blocks a stall-on-use
// check picks the stall category and the deadline it notes.
type StaticInst struct {
	// Addr is the fetch address, isa.InstAddr of the instruction's index.
	Addr uint32
	// QP is the qualifying predicate, or -1 when it is p0 (or absent).
	QP   int16
	Lat  uint8 // isa.Op.Latency
	FU   isa.FUClass
	Kind isa.Kind

	nsrcs, nreads, ndsts uint8
	srcs                 [2]int16
	reads                [3]int16
	dsts                 [2]int16
}

// Srcs returns the registers read other than the qualifying predicate: what
// an in-order issue stage checks once the predicate is known true. A source
// equal to the predicate is left out, as the predicate check covers it.
func (s *StaticInst) Srcs() []int16 { return s.srcs[:s.nsrcs] }

// Reads returns every register read, the qualifying predicate first: what a
// renaming window captures dependences on.
func (s *StaticInst) Reads() []int16 { return s.reads[:s.nreads] }

// Dsts returns the registers written.
func (s *StaticInst) Dsts() []int16 { return s.dsts[:s.ndsts] }

// IsLoad, IsStore and IsBranch classify the instruction by its Kind.
func (s *StaticInst) IsLoad() bool   { return s.Kind == isa.KindLoad }
func (s *StaticInst) IsStore() bool  { return s.Kind == isa.KindStore }
func (s *StaticInst) IsBranch() bool { return s.Kind == isa.KindBranch }

// Operands is a program's operand table: entry i decodes Insts[i]. A run
// builds it once from Run.Prog, and every loop indexes it by
// DynInst.Index.
type Operands []StaticInst

// NewOperands decodes every instruction of p.
func NewOperands(p *isa.Program) Operands {
	ops := make(Operands, len(p.Insts))
	var buf [4]isa.Reg
	for i := range p.Insts {
		in, s := &p.Insts[i], &ops[i]
		s.Addr = isa.InstAddr(i)
		s.QP = -1
		if !in.QP.IsZeroReg() && !in.QP.IsNone() {
			s.QP = int16(in.QP.Flat())
		}
		s.Lat = uint8(in.Op.Latency())
		s.FU = in.Op.FU()
		s.Kind = in.Op.Kind()
		for _, r := range in.Reads(buf[:0]) {
			if r.IsZeroReg() {
				continue
			}
			s.reads[s.nreads] = int16(r.Flat())
			s.nreads++
			if r != in.QP {
				s.srcs[s.nsrcs] = int16(r.Flat())
				s.nsrcs++
			}
		}
		for _, r := range in.Writes(buf[:0]) {
			if !r.IsZeroReg() {
				s.dsts[s.ndsts] = int16(r.Flat())
				s.ndsts++
			}
		}
	}
	return ops
}
