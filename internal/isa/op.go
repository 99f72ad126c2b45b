package isa

import "fmt"

// Op is an operation code.
type Op uint8

// Operation codes. Immediate variants take their second operand from the
// instruction's Imm field instead of Src2.
const (
	OpNop Op = iota

	// Integer ALU, single-cycle.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical right shift
	OpSar // arithmetic right shift
	OpAddI
	OpSubI
	OpAndI
	OpOrI
	OpXorI
	OpShlI
	OpShrI
	OpSarI
	OpMov  // integer register move
	OpMovI // load immediate

	// Integer compares: write a predicate and its complement (Dst, Dst2).
	OpCmpEq
	OpCmpNe
	OpCmpLt  // signed
	OpCmpLe  // signed
	OpCmpLtU // unsigned
	OpCmpLeU // unsigned
	OpCmpEqI
	OpCmpNeI
	OpCmpLtI
	OpCmpLeI
	OpCmpLtUI

	// Integer multiply/divide, multi-cycle (issued to the FP units, as on
	// Itanium where fixed-point multiply executes in the FP pipeline).
	OpMul
	OpDiv
	OpRem

	// Floating point, multi-cycle.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMov
	OpFNeg
	OpCvtIF // int -> fp
	OpCvtFI // fp -> int (truncating)
	OpFCmpEq
	OpFCmpLt
	OpFCmpLe

	// Memory. Address is Src1 + Imm. Loads zero-extend into a 32-bit value
	// except OpLdF/OpStF which move a full 8-byte float.
	OpLd1
	OpLd2
	OpLd4
	OpLdF
	OpSt1
	OpSt2
	OpSt4
	OpStF

	// Control flow. OpBr is taken when its qualifying predicate is true (the
	// QP field doubles as the branch condition, as with Itanium br.cond).
	OpBr
	OpJmp

	// OpRestart is the compiler-inserted multipass advance-restart hint
	// (paper §3.3). It consumes the destination of a critical load (Src1);
	// when that operand is unready during advance execution the pipeline
	// restarts the advance pass. In every other mode it is an effective nop.
	OpRestart

	// OpHalt terminates the program.
	OpHalt

	numOps // sentinel
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Kind is a coarse classification of operations used by the timing models
// and by stall-cycle attribution (paper Figure 6 categories).
type Kind uint8

const (
	KindNop Kind = iota
	KindALU
	KindMulDiv
	KindFP
	KindLoad
	KindStore
	KindBranch
	KindRestart
	KindHalt
)

func (k Kind) String() string {
	switch k {
	case KindNop:
		return "nop"
	case KindALU:
		return "alu"
	case KindMulDiv:
		return "muldiv"
	case KindFP:
		return "fp"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	case KindRestart:
		return "restart"
	case KindHalt:
		return "halt"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FUClass identifies the functional-unit class an operation issues to.
type FUClass uint8

const (
	FUNone FUClass = iota
	FUInt          // integer ALUs (I- and M-unit ALUs combined)
	FUMem          // memory ports
	FUFP           // floating-point units (also integer mul/div)
	FUBr           // branch units
	numFUClasses
)

// NumFUClasses is the number of functional-unit classes, including FUNone.
const NumFUClasses = int(numFUClasses)

func (c FUClass) String() string {
	switch c {
	case FUNone:
		return "none"
	case FUInt:
		return "int"
	case FUMem:
		return "mem"
	case FUFP:
		return "fp"
	case FUBr:
		return "br"
	}
	return fmt.Sprintf("FUClass(%d)", uint8(c))
}

// OperandShape describes which instruction fields an opcode uses and the
// register classes it expects, for validation and for the assembler.
type OperandShape struct {
	Dst     RegClass // RegClassNone if no destination
	Dst2    RegClass // second destination (compare complements)
	Src1    RegClass
	Src2    RegClass
	UsesImm bool
	Branch  bool // uses Target
}

// OpInfo describes the static properties of one opcode.
type OpInfo struct {
	Name    string
	Kind    Kind
	FU      FUClass
	Latency int // execution latency in cycles (loads: L1-hit latency)
	Shape   OperandShape
}

// Latencies for multi-cycle operations (paper "other" stall category).
const (
	LatALU  = 1
	LatMul  = 4
	LatDiv  = 12
	LatFP   = 4
	LatFDiv = 16
	LatLoad = 1 // L1D hit (Table 2); misses add hierarchy latency
)

var opInfos = [NumOps]OpInfo{
	OpNop:  {"nop", KindNop, FUInt, 1, OperandShape{}},
	OpHalt: {"halt", KindHalt, FUBr, 1, OperandShape{}},

	OpAdd:  {"add", KindALU, FUInt, LatALU, shapeRRR},
	OpSub:  {"sub", KindALU, FUInt, LatALU, shapeRRR},
	OpAnd:  {"and", KindALU, FUInt, LatALU, shapeRRR},
	OpOr:   {"or", KindALU, FUInt, LatALU, shapeRRR},
	OpXor:  {"xor", KindALU, FUInt, LatALU, shapeRRR},
	OpShl:  {"shl", KindALU, FUInt, LatALU, shapeRRR},
	OpShr:  {"shr", KindALU, FUInt, LatALU, shapeRRR},
	OpSar:  {"sar", KindALU, FUInt, LatALU, shapeRRR},
	OpAddI: {"addi", KindALU, FUInt, LatALU, shapeRRI},
	OpSubI: {"subi", KindALU, FUInt, LatALU, shapeRRI},
	OpAndI: {"andi", KindALU, FUInt, LatALU, shapeRRI},
	OpOrI:  {"ori", KindALU, FUInt, LatALU, shapeRRI},
	OpXorI: {"xori", KindALU, FUInt, LatALU, shapeRRI},
	OpShlI: {"shli", KindALU, FUInt, LatALU, shapeRRI},
	OpShrI: {"shri", KindALU, FUInt, LatALU, shapeRRI},
	OpSarI: {"sari", KindALU, FUInt, LatALU, shapeRRI},
	OpMov:  {"mov", KindALU, FUInt, LatALU, OperandShape{Dst: RegClassInt, Src1: RegClassInt}},
	OpMovI: {"movi", KindALU, FUInt, LatALU, OperandShape{Dst: RegClassInt, UsesImm: true}},

	OpCmpEq:   {"cmp.eq", KindALU, FUInt, LatALU, shapeCmpRR},
	OpCmpNe:   {"cmp.ne", KindALU, FUInt, LatALU, shapeCmpRR},
	OpCmpLt:   {"cmp.lt", KindALU, FUInt, LatALU, shapeCmpRR},
	OpCmpLe:   {"cmp.le", KindALU, FUInt, LatALU, shapeCmpRR},
	OpCmpLtU:  {"cmp.ltu", KindALU, FUInt, LatALU, shapeCmpRR},
	OpCmpLeU:  {"cmp.leu", KindALU, FUInt, LatALU, shapeCmpRR},
	OpCmpEqI:  {"cmpi.eq", KindALU, FUInt, LatALU, shapeCmpRI},
	OpCmpNeI:  {"cmpi.ne", KindALU, FUInt, LatALU, shapeCmpRI},
	OpCmpLtI:  {"cmpi.lt", KindALU, FUInt, LatALU, shapeCmpRI},
	OpCmpLeI:  {"cmpi.le", KindALU, FUInt, LatALU, shapeCmpRI},
	OpCmpLtUI: {"cmpi.ltu", KindALU, FUInt, LatALU, shapeCmpRI},

	OpMul: {"mul", KindMulDiv, FUFP, LatMul, shapeRRR},
	OpDiv: {"div", KindMulDiv, FUFP, LatDiv, shapeRRR},
	OpRem: {"rem", KindMulDiv, FUFP, LatDiv, shapeRRR},

	OpFAdd:  {"fadd", KindFP, FUFP, LatFP, shapeFFF},
	OpFSub:  {"fsub", KindFP, FUFP, LatFP, shapeFFF},
	OpFMul:  {"fmul", KindFP, FUFP, LatFP, shapeFFF},
	OpFDiv:  {"fdiv", KindFP, FUFP, LatFDiv, shapeFFF},
	OpFMov:  {"fmov", KindFP, FUFP, LatALU, OperandShape{Dst: RegClassFP, Src1: RegClassFP}},
	OpFNeg:  {"fneg", KindFP, FUFP, LatALU, OperandShape{Dst: RegClassFP, Src1: RegClassFP}},
	OpCvtIF: {"cvt.if", KindFP, FUFP, LatFP, OperandShape{Dst: RegClassFP, Src1: RegClassInt}},
	OpCvtFI: {"cvt.fi", KindFP, FUFP, LatFP, OperandShape{Dst: RegClassInt, Src1: RegClassFP}},
	OpFCmpEq: {"fcmp.eq", KindFP, FUFP, LatFP,
		OperandShape{Dst: RegClassPred, Dst2: RegClassPred, Src1: RegClassFP, Src2: RegClassFP}},
	OpFCmpLt: {"fcmp.lt", KindFP, FUFP, LatFP,
		OperandShape{Dst: RegClassPred, Dst2: RegClassPred, Src1: RegClassFP, Src2: RegClassFP}},
	OpFCmpLe: {"fcmp.le", KindFP, FUFP, LatFP,
		OperandShape{Dst: RegClassPred, Dst2: RegClassPred, Src1: RegClassFP, Src2: RegClassFP}},

	OpLd1: {"ld1", KindLoad, FUMem, LatLoad, shapeLoad},
	OpLd2: {"ld2", KindLoad, FUMem, LatLoad, shapeLoad},
	OpLd4: {"ld4", KindLoad, FUMem, LatLoad, shapeLoad},
	OpLdF: {"ldf", KindLoad, FUMem, LatLoad, OperandShape{Dst: RegClassFP, Src1: RegClassInt, UsesImm: true}},
	OpSt1: {"st1", KindStore, FUMem, 1, shapeStore},
	OpSt2: {"st2", KindStore, FUMem, 1, shapeStore},
	OpSt4: {"st4", KindStore, FUMem, 1, shapeStore},
	OpStF: {"stf", KindStore, FUMem, 1, OperandShape{Src1: RegClassInt, Src2: RegClassFP, UsesImm: true}},

	OpBr:  {"br", KindBranch, FUBr, 1, OperandShape{Branch: true}},
	OpJmp: {"jmp", KindBranch, FUBr, 1, OperandShape{Branch: true}},

	OpRestart: {"restart", KindRestart, FUInt, 1, OperandShape{Src1: RegClassInt}},
}

var (
	shapeRRR   = OperandShape{Dst: RegClassInt, Src1: RegClassInt, Src2: RegClassInt}
	shapeFFF   = OperandShape{Dst: RegClassFP, Src1: RegClassFP, Src2: RegClassFP}
	shapeRRI   = OperandShape{Dst: RegClassInt, Src1: RegClassInt, UsesImm: true}
	shapeCmpRR = OperandShape{Dst: RegClassPred, Dst2: RegClassPred, Src1: RegClassInt, Src2: RegClassInt}
	shapeCmpRI = OperandShape{Dst: RegClassPred, Dst2: RegClassPred, Src1: RegClassInt, UsesImm: true}
	shapeLoad  = OperandShape{Dst: RegClassInt, Src1: RegClassInt, UsesImm: true}
	shapeStore = OperandShape{Src1: RegClassInt, Src2: RegClassInt, UsesImm: true}
)

// Packed per-opcode property tables, derived from opInfos at package
// initialization. The cycle loops query Kind/FU/Latency/MemBytes/Shape
// several times per instruction per simulated cycle; indexing a small table
// avoids copying the whole OpInfo (name string included) on every query.
var (
	opKinds     [NumOps]Kind
	opFUs       [NumOps]FUClass
	opLatencies [NumOps]uint8
	opMemBytes  [NumOps]uint8
	opShapes    [NumOps]OperandShape
)

func init() {
	for op := Op(0); int(op) < NumOps; op++ {
		info := opInfos[op]
		opKinds[op] = info.Kind
		opFUs[op] = info.FU
		opLatencies[op] = uint8(info.Latency)
		opShapes[op] = info.Shape
		switch op {
		case OpLd1, OpSt1:
			opMemBytes[op] = 1
		case OpLd2, OpSt2:
			opMemBytes[op] = 2
		case OpLd4, OpSt4:
			opMemBytes[op] = 4
		case OpLdF, OpStF:
			opMemBytes[op] = 8
		}
	}
}

// Info returns the static description of op.
func (op Op) Info() OpInfo {
	if int(op) >= NumOps {
		return OpInfo{Name: fmt.Sprintf("op%d", op), Kind: KindNop, FU: FUInt, Latency: 1}
	}
	return opInfos[op]
}

// Kind returns the coarse classification of op.
func (op Op) Kind() Kind {
	if int(op) >= NumOps {
		return KindNop
	}
	return opKinds[op]
}

// FU returns the functional-unit class op issues to.
func (op Op) FU() FUClass {
	if int(op) >= NumOps {
		return FUInt
	}
	return opFUs[op]
}

// Latency returns the execution latency of op in cycles (L1-hit latency for
// loads).
func (op Op) Latency() int {
	if int(op) >= NumOps {
		return 1
	}
	return int(opLatencies[op])
}

// Shape returns the operand shape of op.
func (op Op) Shape() OperandShape {
	if int(op) >= NumOps {
		return OperandShape{}
	}
	return opShapes[op]
}

func (op Op) String() string { return op.Info().Name }

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool { return op.Kind() == KindLoad }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op.Kind() == KindStore }

// IsMem reports whether op accesses memory.
func (op Op) IsMem() bool { return op.IsLoad() || op.IsStore() }

// IsBranch reports whether op is a control-flow operation.
func (op Op) IsBranch() bool { return op.Kind() == KindBranch }

// MemBytes returns the access width in bytes for memory operations, or 0.
func (op Op) MemBytes() int {
	if int(op) >= NumOps {
		return 0
	}
	return int(opMemBytes[op])
}

// OpByName resolves an assembler mnemonic to its opcode.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}

var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); int(op) < NumOps; op++ {
		m[op.Info().Name] = op
	}
	return m
}()
