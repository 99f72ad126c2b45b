package prog

import (
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
)

// buildCountdown builds: r1 = n; loop { r2 += r1; r1-- } until r1 == 0.
func buildCountdown(n int32) *Unit {
	u := NewUnit()
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	p1 := isa.PredReg(1)
	entry := u.NewBlock("entry")
	entry.MovI(r1, n)
	entry.MovI(r2, 0)
	loop := u.NewBlock("loop")
	loop.Op3(isa.OpAdd, r2, r2, r1)
	loop.OpI(isa.OpSubI, r1, r1, 1)
	loop.CmpI(isa.OpCmpNeI, p1, isa.PredReg(2), r1, 0)
	loop.Br(p1, "loop")
	exit := u.NewBlock("exit")
	exit.Halt()
	return u
}

func TestBuildAndLink(t *testing.T) {
	u := buildCountdown(10)
	p, err := u.Link()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 7 {
		t.Fatalf("linked %d instructions, want 7", len(p.Insts))
	}
	if p.Symbols["loop"] != 2 || p.Symbols["exit"] != 6 {
		t.Errorf("symbols = %v", p.Symbols)
	}
	br := p.Insts[5]
	if br.Op != isa.OpBr || br.Target != 2 {
		t.Errorf("branch = %+v", br)
	}
	res, err := arch.Run(p, arch.NewMemory(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.State.RF.Read(isa.IntReg(2)).Uint32(); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	// Undefined branch target.
	u := NewUnit()
	b := u.NewBlock("entry")
	b.Br(isa.PredReg(1), "nowhere")
	b.Halt()
	if _, err := u.Link(); err == nil {
		t.Error("undefined target accepted")
	}

	// Duplicate labels.
	u2 := NewUnit()
	u2.NewBlock("x").Halt()
	u2.NewBlock("x").Halt()
	if _, err := u2.Link(); err == nil {
		t.Error("duplicate label accepted")
	}

	// Fallthrough off the end.
	u3 := NewUnit()
	u3.NewBlock("entry").Nop()
	if _, err := u3.Link(); err == nil {
		t.Error("fallthrough off end accepted")
	}

	// Empty unit.
	if _, err := NewUnit().Link(); err == nil {
		t.Error("empty unit accepted")
	}
}

func TestSuccs(t *testing.T) {
	u := buildCountdown(3)
	entry, loop, exit := u.Blocks[0], u.Blocks[1], u.Blocks[2]
	succs := loop.Succs("exit")
	if len(succs) != 2 || succs[0] != "loop" || succs[1] != "exit" {
		t.Errorf("loop succs = %v", succs)
	}
	if s := entry.Succs("loop"); len(s) != 1 || s[0] != "loop" {
		t.Errorf("entry succs = %v", s)
	}
	if s := exit.Succs(""); len(s) != 0 {
		t.Errorf("exit succs = %v", s)
	}
	// A block ending in an unconditional jmp has no fallthrough successor.
	u2 := NewUnit()
	a := u2.NewBlock("a")
	a.Jmp("b")
	u2.NewBlock("b").Halt()
	if s := a.Succs("b"); len(s) != 1 || s[0] != "b" {
		t.Errorf("jmp succs = %v", s)
	}
}

func TestEmitDefaultsQP(t *testing.T) {
	u := NewUnit()
	b := u.NewBlock("entry")
	in := b.Emit(isa.Inst{Op: isa.OpMovI, Dst: isa.IntReg(1), Imm: 5}, "")
	if in.QP != isa.P0 {
		t.Errorf("QP defaulted to %v, want p0", in.QP)
	}
	b.Halt()
	if _, err := u.Link(); err != nil {
		t.Fatal(err)
	}
}

func TestPredicatedEmit(t *testing.T) {
	u := NewUnit()
	b := u.NewBlock("entry")
	b.MovI(isa.IntReg(1), 1)
	b.CmpI(isa.OpCmpEqI, isa.PredReg(1), isa.PredReg(2), isa.IntReg(1), 1)
	b.MovI(isa.IntReg(2), 100).QP = isa.PredReg(1)
	b.MovI(isa.IntReg(3), 200).QP = isa.PredReg(2)
	b.Halt()
	p, err := u.Link()
	if err != nil {
		t.Fatal(err)
	}
	res, err := arch.Run(p, arch.NewMemory(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.RF.Read(isa.IntReg(2)).Uint32() != 100 {
		t.Error("true-predicated move did not execute")
	}
	if res.State.RF.Read(isa.IntReg(3)).Uint32() != 0 {
		t.Error("false-predicated move executed")
	}
}

func TestBranchLabelSync(t *testing.T) {
	u := NewUnit()
	b := u.NewBlock("entry")
	b.Nop()
	b.BranchLabels = append(b.BranchLabels, "extra") // corrupt on purpose
	b.Halt()
	if err := u.Verify(); err == nil {
		t.Error("out-of-sync BranchLabels accepted")
	}
}
