// Package prog provides the compiler-facing intermediate representation: a
// control-flow graph of basic blocks holding isa instructions, a builder API
// for writing kernels by hand, and a linker that lays the blocks out into a
// flat, executable isa.Program.
//
// Branch targets are symbolic (block labels) at the IR level; prog.Link
// resolves them to instruction indices. Within a block, instructions execute
// in order; control may leave the block at any branch instruction, and falls
// through to the next block in layout order unless the block ends with an
// unconditional transfer.
package prog

import (
	"fmt"

	"multipass/internal/isa"
)

// Block is one basic block: a label, the instructions, and the symbolic
// branch target for each branch instruction.
type Block struct {
	Label string
	Insts []isa.Inst
	// BranchLabels is parallel to Insts: the target label for branch
	// instructions, "" otherwise.
	BranchLabels []string
}

// Unit is a compilation unit: an ordered list of blocks. The first block is
// the entry point. Layout order defines fallthrough edges.
type Unit struct {
	Blocks []*Block
}

// NewUnit returns an empty compilation unit.
func NewUnit() *Unit { return &Unit{} }

// NewBlock appends a new empty block with the given label and returns it.
// Labels must be unique within the unit.
func (u *Unit) NewBlock(label string) *Block {
	b := &Block{Label: label}
	u.Blocks = append(u.Blocks, b)
	return b
}

// Emit appends an instruction with an optional symbolic branch target and
// returns a pointer to the stored instruction for further adjustment (for
// example to set the qualifying predicate).
func (b *Block) Emit(in isa.Inst, branchLabel string) *isa.Inst {
	if in.QP.IsNone() {
		in.QP = isa.P0
	}
	if in.Op.Info().Shape.Branch {
		in.Target = -1
	}
	b.Insts = append(b.Insts, in)
	b.BranchLabels = append(b.BranchLabels, branchLabel)
	return &b.Insts[len(b.Insts)-1]
}

// Op3 emits a three-register operation dst = op(a, b2).
func (b *Block) Op3(op isa.Op, dst, a, b2 isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Dst: dst, Src1: a, Src2: b2}, "")
}

// OpI emits a register-immediate operation dst = op(a, imm).
func (b *Block) OpI(op isa.Op, dst, a isa.Reg, imm int32) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Dst: dst, Src1: a, Imm: imm}, "")
}

// MovI emits dst = imm.
func (b *Block) MovI(dst isa.Reg, imm int32) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpMovI, Dst: dst, Imm: imm}, "")
}

// Mov emits an integer register move.
func (b *Block) Mov(dst, src isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpMov, Dst: dst, Src1: src}, "")
}

// Load emits dst = op [base+off].
func (b *Block) Load(op isa.Op, dst, base isa.Reg, off int32) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Dst: dst, Src1: base, Imm: off}, "")
}

// Store emits op [base+off] = src.
func (b *Block) Store(op isa.Op, base isa.Reg, off int32, src isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Src1: base, Imm: off, Src2: src}, "")
}

// Cmp emits pt, pf = op(a, b2).
func (b *Block) Cmp(op isa.Op, pt, pf, a, b2 isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Dst: pt, Dst2: pf, Src1: a, Src2: b2}, "")
}

// CmpI emits pt, pf = op(a, imm).
func (b *Block) CmpI(op isa.Op, pt, pf, a isa.Reg, imm int32) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Dst: pt, Dst2: pf, Src1: a, Imm: imm}, "")
}

// Br emits a conditional branch to the labelled block, taken when qp is true.
func (b *Block) Br(qp isa.Reg, label string) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpBr, QP: qp}, label)
}

// Jmp emits an unconditional branch to the labelled block.
func (b *Block) Jmp(label string) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpJmp}, label)
}

// Restart emits a multipass advance-restart hint consuming r.
func (b *Block) Restart(r isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpRestart, Src1: r}, "")
}

// Halt emits a program terminator.
func (b *Block) Halt() *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpHalt}, "")
}

// Nop emits a no-op.
func (b *Block) Nop() *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpNop}, "")
}

// endsUnconditionally reports whether the last instruction of the block
// always transfers control (so the block has no fallthrough edge).
func (b *Block) endsUnconditionally() bool {
	if len(b.Insts) == 0 {
		return false
	}
	last := &b.Insts[len(b.Insts)-1]
	switch last.Op {
	case isa.OpJmp, isa.OpHalt:
		return true
	case isa.OpBr:
		return last.QP == isa.P0
	}
	return false
}

// Verify checks structural invariants: unique labels, defined branch
// targets, and that the final block does not fall off the end of the unit.
func (u *Unit) Verify() error {
	if len(u.Blocks) == 0 {
		return fmt.Errorf("prog: empty unit")
	}
	labels := make(map[string]bool, len(u.Blocks))
	for _, b := range u.Blocks {
		if b.Label == "" {
			return fmt.Errorf("prog: block with empty label")
		}
		if labels[b.Label] {
			return fmt.Errorf("prog: duplicate block label %q", b.Label)
		}
		labels[b.Label] = true
	}
	for _, b := range u.Blocks {
		if len(b.Insts) != len(b.BranchLabels) {
			return fmt.Errorf("prog: block %q: BranchLabels out of sync", b.Label)
		}
		for i := range b.Insts {
			isBranch := b.Insts[i].Op.Info().Shape.Branch
			if isBranch && !labels[b.BranchLabels[i]] {
				return fmt.Errorf("prog: block %q inst %d: undefined target %q", b.Label, i, b.BranchLabels[i])
			}
			if !isBranch && b.BranchLabels[i] != "" {
				return fmt.Errorf("prog: block %q inst %d: target on non-branch", b.Label, i)
			}
		}
	}
	if last := u.Blocks[len(u.Blocks)-1]; !last.endsUnconditionally() {
		return fmt.Errorf("prog: final block %q falls through past the end", last.Label)
	}
	return nil
}

// Succs returns the labels of the blocks control can reach directly from b,
// in deterministic order: every branch target in instruction order, then the
// fallthrough (if any). next is the label of the next block in layout order,
// "" if b is last.
func (b *Block) Succs(next string) []string {
	var out []string
	seen := make(map[string]bool)
	for i := range b.Insts {
		if b.Insts[i].Op.Info().Shape.Branch {
			t := b.BranchLabels[i]
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	if !b.endsUnconditionally() && next != "" && !seen[next] {
		out = append(out, next)
	}
	return out
}

// Link lays out the blocks in order, resolves branch targets to flat
// instruction indices, and returns the validated executable program.
func (u *Unit) Link() (*isa.Program, error) {
	if err := u.Verify(); err != nil {
		return nil, err
	}
	start := make(map[string]int, len(u.Blocks))
	n := 0
	for _, b := range u.Blocks {
		start[b.Label] = n
		n += len(b.Insts)
	}
	p := &isa.Program{Insts: make([]isa.Inst, 0, n), Symbols: start}
	for _, b := range u.Blocks {
		for i := range b.Insts {
			in := b.Insts[i]
			if in.Op.Info().Shape.Branch {
				in.Target = int32(start[b.BranchLabels[i]])
			}
			p.Insts = append(p.Insts, in)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
