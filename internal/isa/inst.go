package isa

import (
	"fmt"
	"strings"
)

// Inst is one decoded instruction. All instructions are predicated by QP
// (use P0 for unconditional execution); a false qualifying predicate squashes
// the instruction's side effects. For OpBr the qualifying predicate is the
// branch condition.
type Inst struct {
	Op   Op
	QP   Reg // qualifying predicate; must be a predicate register
	Dst  Reg // primary destination, None if the op has none
	Dst2 Reg // complement predicate for compares, else None
	Src1 Reg
	Src2 Reg
	Imm  int32
	// Target is the destination instruction index for branches, resolved at
	// link time. -1 marks an unresolved target.
	Target int32
	// Stop marks the end of a compiler-specified issue group after this
	// instruction (the EPIC stop bit).
	Stop bool
}

// Reads returns the registers the instruction reads, including the
// qualifying predicate. The result is appended to buf to allow reuse.
func (in *Inst) Reads(buf []Reg) []Reg {
	if !in.QP.IsNone() {
		buf = append(buf, in.QP)
	}
	sh := in.Op.Shape()
	if sh.Src1 != RegClassNone && !in.Src1.IsNone() {
		buf = append(buf, in.Src1)
	}
	if sh.Src2 != RegClassNone && !in.Src2.IsNone() {
		buf = append(buf, in.Src2)
	}
	return buf
}

// Writes returns the registers the instruction writes. The result is
// appended to buf to allow reuse. Hardwired registers (r0, p0) are included;
// callers that care must check Reg.IsZeroReg.
func (in *Inst) Writes(buf []Reg) []Reg {
	sh := in.Op.Shape()
	if sh.Dst != RegClassNone && !in.Dst.IsNone() {
		buf = append(buf, in.Dst)
	}
	if sh.Dst2 != RegClassNone && !in.Dst2.IsNone() {
		buf = append(buf, in.Dst2)
	}
	return buf
}

// Validate checks that the instruction's operands match its opcode's shape.
func (in *Inst) Validate() error {
	info := in.Op.Info()
	if int(in.Op) >= NumOps {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.QP.Class != RegClassPred {
		return fmt.Errorf("isa: %s: qualifying predicate %s is not a predicate register", info.Name, in.QP)
	}
	sh := info.Shape
	check := func(what string, r Reg, want RegClass) error {
		if want == RegClassNone {
			if !r.IsNone() {
				return fmt.Errorf("isa: %s: unexpected %s operand %s", info.Name, what, r)
			}
			return nil
		}
		if r.Class != want {
			return fmt.Errorf("isa: %s: %s operand %s, want %s register", info.Name, what, r, want)
		}
		return nil
	}
	if err := check("dst", in.Dst, sh.Dst); err != nil {
		return err
	}
	if err := check("dst2", in.Dst2, sh.Dst2); err != nil {
		return err
	}
	if err := check("src1", in.Src1, sh.Src1); err != nil {
		return err
	}
	if err := check("src2", in.Src2, sh.Src2); err != nil {
		return err
	}
	if sh.Branch && in.Target < 0 {
		return fmt.Errorf("isa: %s: unresolved branch target", info.Name)
	}
	return nil
}

// String renders the instruction in assembler syntax.
func (in *Inst) String() string {
	var b strings.Builder
	if in.QP != P0 && !in.QP.IsNone() {
		fmt.Fprintf(&b, "(%s) ", in.QP)
	}
	b.WriteString(in.Op.Info().Name)
	sh := in.Op.Shape()
	var dsts, srcs []string
	if sh.Dst != RegClassNone {
		dsts = append(dsts, in.Dst.String())
	}
	if sh.Dst2 != RegClassNone {
		dsts = append(dsts, in.Dst2.String())
	}
	switch {
	case in.Op.IsLoad():
		srcs = append(srcs, fmt.Sprintf("[%s+%d]", in.Src1, in.Imm))
	case in.Op.IsStore():
		dsts = append(dsts, fmt.Sprintf("[%s+%d]", in.Src1, in.Imm))
		srcs = append(srcs, in.Src2.String())
	default:
		if sh.Src1 != RegClassNone {
			srcs = append(srcs, in.Src1.String())
		}
		if sh.Src2 != RegClassNone {
			srcs = append(srcs, in.Src2.String())
		}
		if sh.UsesImm {
			srcs = append(srcs, fmt.Sprintf("%d", in.Imm))
		}
	}
	if sh.Branch {
		srcs = append(srcs, fmt.Sprintf("@%d", in.Target))
	}
	if len(dsts) > 0 {
		b.WriteByte(' ')
		b.WriteString(strings.Join(dsts, ", "))
	}
	if len(srcs) > 0 {
		if len(dsts) > 0 {
			b.WriteString(" = ")
		} else {
			b.WriteByte(' ')
		}
		b.WriteString(strings.Join(srcs, ", "))
	}
	if in.Stop {
		b.WriteString(" ;;")
	}
	return b.String()
}

// Program is a linked, flat instruction sequence with resolved branch
// targets. Instruction i notionally occupies the 16-byte-aligned fetch
// address returned by InstAddr, three instructions per bundle as on Itanium.
type Program struct {
	Insts []Inst
	// Symbols maps label names to instruction indices, for diagnostics.
	Symbols map[string]int
}

// BundleBytes is the fetch footprint of one 3-instruction bundle.
const BundleBytes = 16

// InstAddr returns the simulated fetch address of instruction index i, used
// for instruction-cache indexing.
func InstAddr(i int) uint32 { return uint32(i/3) * BundleBytes }

// Validate checks every instruction and every branch target.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("isa: empty program")
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("inst %d: %w", i, err)
		}
		if in.Op.Shape().Branch {
			if int(in.Target) >= len(p.Insts) {
				return fmt.Errorf("inst %d: branch target %d out of range", i, in.Target)
			}
		}
	}
	return nil
}

// String disassembles the whole program with instruction indices and labels.
func (p *Program) String() string {
	labelAt := make(map[int][]string)
	for name, idx := range p.Symbols {
		labelAt[idx] = append(labelAt[idx], name)
	}
	var b strings.Builder
	for i := range p.Insts {
		for _, l := range labelAt[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%5d  %s\n", i, p.Insts[i].String())
	}
	return b.String()
}
