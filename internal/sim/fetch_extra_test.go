package sim

import (
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
)

// takenBranchProgram: a tight loop whose body spans one fetch group.
func takenBranchProgram() *isa.Program {
	return isa.MustAssemble(`
	movi r1 = 50
loop:
	addi r2 = r2, 1
	addi r3 = r3, 1
	subi r1 = r1, 1
	cmpi.ne p1, p2 = r1, 0 ;;
	(p1) br loop
	halt
`)
}

// TestTakenBranchEndsFetchGroup: instructions after a taken branch are
// fetched in a later front-end cycle (the redirect consumes the rest of the
// group), while a not-taken branch lets the group continue.
func TestTakenBranchEndsFetchGroup(t *testing.T) {
	h := mem.MustNewHierarchy(mem.BaseConfig())
	p := takenBranchProgram()
	s := NewStream(p, arch.NewMemory(), 100000)
	f := NewFetchUnit(s, NewOperands(p), h, 6)
	f.SetLimit(1 << 30)

	// Locate the first taken loop-back branch (seq 5: movi + 4 body insts).
	d, err := s.At(5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Flags != arch.EvBranch|arch.EvTaken {
		t.Fatalf("seq 5 is not the taken branch: %+v", d)
	}
	rBr, _, err := f.ReadyAt(5)
	if err != nil {
		t.Fatal(err)
	}
	rNext, _, err := f.ReadyAt(6)
	if err != nil {
		t.Fatal(err)
	}
	if rNext <= rBr {
		t.Errorf("instruction after taken branch ready at %d, branch at %d: redirect had no cost", rNext, rBr)
	}
	// The last dynamic branch is not taken; the following halt may share
	// its fetch group.
	endSeq := uint64(1 + 50*5) // movi + 50 iterations x (4 body + branch), halt last
	dl, err := s.At(endSeq)
	if err != nil {
		t.Fatal(err)
	}
	if dl == nil || !isHalt(p, dl) {
		t.Fatalf("end sequence wrong: %+v", dl)
	}
}

// TestFetchHotLoopThroughput: once warm, a 5-instruction loop body should
// be delivered at roughly one group per cycle, not be I-cache limited.
func TestFetchHotLoopThroughput(t *testing.T) {
	h := mem.MustNewHierarchy(mem.BaseConfig())
	p := takenBranchProgram()
	s := NewStream(p, arch.NewMemory(), 100000)
	f := NewFetchUnit(s, NewOperands(p), h, 6)
	f.SetLimit(1 << 30)
	// Warm through the first iterations, then measure the spacing of ten
	// later iterations.
	r40, _, err := f.ReadyAt(40)
	if err != nil {
		t.Fatal(err)
	}
	r80, _, err := f.ReadyAt(80)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(r80-r40) / 40
	if perInst > 0.6 {
		t.Errorf("warm fetch delivers %.2f cycles/inst; too slow for a hot loop", perInst)
	}
}
