package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/compile"
	"multipass/internal/isa"
	"multipass/internal/workload"
	"multipass/internal/xcheck/progen"
)

// stepwiseRef is a program's dynamic instruction sequence as State.Step
// produces it, one instruction at a time: the reference every
// superblock-decoded stream must equal field by field.
type stepwiseRef struct {
	insts []DynInst
	final *arch.State
	err   error // the lazy stream's error at seq len(insts), if any
	// mid is a checkpoint at sequence mid.Seq, taken on a branch whose
	// static predecessor retired just before it where one exists, so a
	// stream started there may enter between the halves of a fused pair.
	mid *Checkpoint
}

func buildStepwiseRef(p *isa.Program, image *arch.Memory, limit uint64) *stepwiseRef {
	n := refLen(p, image, limit)
	st := arch.NewState(image.Clone())
	ref := &stepwiseRef{final: st}
	for !st.Halted {
		if ref.mid == nil && st.Retired >= n/2 && st.Retired > 0 {
			prev := &ref.insts[st.Retired-1]
			if in := &p.Insts[st.PC]; st.Retired >= min(n/2+1000, n-1) || (in.Op.IsBranch() && prev.Index == st.PC-1) {
				ref.mid = &Checkpoint{Seq: st.Retired, PC: st.PC, RF: st.RF.Clone(), Mem: st.Mem.Clone()}
			}
		}
		if st.Retired >= limit {
			ref.err = fmt.Errorf("sim: dynamic instruction limit %d exceeded", limit)
			return ref
		}
		idx := st.PC
		info, err := st.Step(p)
		if err != nil {
			ref.err = err
			return ref
		}
		ref.insts = append(ref.insts, DynInst{
			Seq:      uint64(len(ref.insts)),
			Index:    idx,
			Inst:     &p.Insts[idx],
			Squashed: info.Squashed,
			IsLoad:   info.IsLoad,
			IsStore:  info.IsStore,
			MemAddr:  info.MemAddr,
			IsBranch: info.IsBranch,
			Taken:    info.Taken,
			NextIdx:  info.NextPC,
			Halt:     st.Halted,
		})
	}
	return ref
}

// refLen counts the instructions a step-wise run retires before it halts,
// faults or reaches limit.
func refLen(p *isa.Program, image *arch.Memory, limit uint64) uint64 {
	st := arch.NewState(image.Clone())
	for !st.Halted && st.Retired < limit {
		if _, err := st.Step(p); err != nil {
			break
		}
	}
	return st.Retired
}

// checkStream drains s from seq from, holding the last hold records and
// checking each against the reference both when it is produced and again
// just before it is released, so a record reused while still held shows.
// The end of the stream must match too: nil after the halt, or the
// reference's error at the same sequence.
func checkStream(t *testing.T, label string, s *Stream, ref *stepwiseRef, from uint64, hold int) {
	t.Helper()
	var held []*DynInst
	for seq := from; seq < uint64(len(ref.insts)); seq++ {
		d, err := s.At(seq)
		if err != nil {
			t.Fatalf("%s: seq %d: %v", label, seq, err)
		}
		if d == nil || *d != ref.insts[seq] {
			t.Fatalf("%s: seq %d = %+v, want %+v", label, seq, d, ref.insts[seq])
		}
		held = append(held, d)
		if len(held) > hold {
			if old := held[0]; *old != ref.insts[old.Seq] {
				t.Fatalf("%s: held seq %d changed to %+v", label, ref.insts[old.Seq].Seq, old)
			}
			held = held[1:]
			s.Release(seq + 1 - uint64(hold))
		}
	}
	end := uint64(len(ref.insts))
	d, err := s.At(end)
	switch {
	case ref.err == nil && (d != nil || err != nil):
		t.Fatalf("%s: seq %d past the halt = %+v, %v", label, end, d, err)
	case ref.err == nil && (!s.Ended() || s.EndSeq() != end-1):
		t.Fatalf("%s: Ended %v EndSeq %d, want true %d", label, s.Ended(), s.EndSeq(), end-1)
	case ref.err != nil && (err == nil || err.Error() != ref.err.Error()):
		t.Fatalf("%s: seq %d error %v, want %v", label, end, err, ref.err)
	}
	if ref.err == nil {
		checkFinal(t, label, s.FinalState(), ref.final)
	}
}

func checkFinal(t *testing.T, label string, got, want *arch.State) {
	t.Helper()
	if !got.Halted || got.Retired != want.Retired || got.PC != want.PC {
		t.Fatalf("%s: final state halted %v retired %d pc %d, want retired %d pc %d",
			label, got.Halted, got.Retired, got.PC, want.Retired, want.PC)
	}
	if !got.RF.Equal(want.RF) || !got.Mem.Equal(want.Mem) {
		t.Fatalf("%s: final registers or memory differ", label)
	}
}

// squashSrc retires a squashed instruction of every kind, the halt
// included, before the real halt.
const squashSrc = `
	movi r1 = 1
	cmpi.eq p1, p2 = r1, 99
	(p1) halt
	(p1) ld4 r2 = [r1+4096]
	(p1) st4 [r1+4096] = r1
	(p1) br end
	(p2) st4 [r1+4100] = r1
end:
	halt
`

// TestStreamDifferential pins every superblock-decoded stream to the
// step-wise reference, field by field: the pre-decoded trace, the lazy
// stream from reset, and the lazy stream from a mid-stream checkpoint, over
// the 12 kernels, 50 generated programs, and squashSrc.
func TestStreamDifferential(t *testing.T) {
	type prog struct {
		name  string
		p     *isa.Program
		image *arch.Memory
	}
	progs := []prog{{"squash", isa.MustAssemble(squashSrc), arch.NewMemory()}}
	for _, w := range workload.All() {
		p, image, err := workload.Program(w, 1, compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{w.Name, p, image})
	}
	for seed := uint64(1); seed <= 50; seed++ {
		progs = append(progs, prog{fmt.Sprintf("seed%d", seed), progen.MustGenerate(progen.ForSeed(seed)), arch.NewMemory()})
	}
	holds := []int{1, 700, 5000}
	for i, pg := range progs {
		ref := buildStepwiseRef(pg.p, pg.image, 4_000_000)
		if ref.err != nil {
			t.Fatalf("%s: %v", pg.name, ref.err)
		}
		hold := holds[i%len(holds)]

		tr, err := BuildTrace(pg.p, pg.image, math.MaxUint64)
		if err != nil {
			t.Fatalf("%s: BuildTrace: %v", pg.name, err)
		}
		if tr.Len() != uint64(len(ref.insts)) {
			t.Fatalf("%s: trace length %d, want %d", pg.name, tr.Len(), len(ref.insts))
		}
		for seq := range tr.insts {
			if tr.insts[seq] != ref.insts[seq] {
				t.Fatalf("%s: trace seq %d = %+v, want %+v", pg.name, seq, tr.insts[seq], ref.insts[seq])
			}
		}
		checkFinal(t, pg.name+" trace", tr.FinalState(), ref.final)

		checkStream(t, pg.name+" NewStream", NewStream(pg.p, pg.image.Clone(), math.MaxUint64), ref, 0, hold)
		if ref.mid == nil {
			t.Fatalf("%s: no mid-stream checkpoint", pg.name)
		}
		checkStream(t, fmt.Sprintf("%s StreamFrom(%d)", pg.name, ref.mid.Seq),
			StreamFrom(pg.p, ref.mid, math.MaxUint64, nil), ref, ref.mid.Seq, hold)
	}
}

// TestBuildTraceCap pins the limit boundary: a stream of exactly N
// instructions builds under limit N, fails under N-1 with the over-cap
// error, and builds with no effective limit.
func TestBuildTraceCap(t *testing.T) {
	p := testProgram()
	const n = 15
	for _, limit := range []uint64{n, n + 1, math.MaxUint64} {
		tr, err := BuildTrace(p, arch.NewMemory(), limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if tr.Len() != n {
			t.Fatalf("limit %d: length %d, want %d", limit, tr.Len(), n)
		}
	}
	for _, limit := range []uint64{0, 1, n - 1} {
		_, err := BuildTrace(p, arch.NewMemory(), limit)
		if want := fmt.Sprintf("sim: trace exceeds %d dynamic instructions", limit); err == nil || err.Error() != want {
			t.Fatalf("limit %d: err %v, want %q", limit, err, want)
		}
	}
}

// TestStreamErrors pins where a lazy stream reports failure: the limit
// error at sequence limit, and a PC that leaves the program at the
// sequence that would execute there, with every earlier instruction still
// produced, as the step-wise reference does. The limits include ones that
// land between the halves of testProgram's fused compare and branch.
func TestStreamErrors(t *testing.T) {
	p := testProgram()
	for limit := uint64(0); limit < 15; limit++ {
		ref := buildStepwiseRef(p, arch.NewMemory(), limit)
		if ref.err == nil || !strings.Contains(ref.err.Error(), "limit") {
			t.Fatalf("limit %d: reference error %v", limit, ref.err)
		}
		checkStream(t, fmt.Sprintf("limit %d", limit), NewStream(p, arch.NewMemory(), limit), ref, 0, 1)
	}

	offEnd := isa.MustAssemble(`
	movi r1 = 3
loop:
	subi r1 = r1, 1
	cmpi.ne p1, p2 = r1, 0
	(p1) br loop
	addi r2 = r2, 1
`)
	wild := &isa.Program{Insts: []isa.Inst{
		{Op: isa.OpMovI, QP: isa.P0, Dst: isa.IntReg(1), Imm: 1},
		{Op: isa.OpCmpNeI, QP: isa.P0, Dst: isa.PredReg(1), Dst2: isa.PredReg(2), Src1: isa.IntReg(1)},
		{Op: isa.OpBr, QP: isa.PredReg(1), Target: 40},
		{Op: isa.OpHalt, QP: isa.P0},
	}}
	for _, tc := range []struct {
		name string
		p    *isa.Program
	}{{"off-end", offEnd}, {"wild-branch", wild}} {
		ref := buildStepwiseRef(tc.p, arch.NewMemory(), 1000)
		if ref.err == nil || !strings.Contains(ref.err.Error(), "outside program") {
			t.Fatalf("%s: reference error %v", tc.name, ref.err)
		}
		checkStream(t, tc.name, NewStream(tc.p, arch.NewMemory(), 1000), ref, 0, 1)
		if _, err := BuildTrace(tc.p, arch.NewMemory(), 1000); err == nil || err.Error() != ref.err.Error() {
			t.Fatalf("%s: BuildTrace err %v, want %v", tc.name, err, ref.err)
		}
	}
}
