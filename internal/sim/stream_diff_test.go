package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/compile"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/workload"
	"multipass/internal/xcheck/progen"
)

// stepwiseRef is a program's dynamic instruction sequence as State.Step
// produces it, one instruction at a time: the reference every stream must
// equal field by field.
type stepwiseRef struct {
	p      *isa.Program
	events []arch.ExecEvent
	final  *arch.State
	err    error // the lazy stream's error at seq len(events), if any
	// mid is a sequence past the middle, on a branch whose static
	// predecessor retired just before it where one exists, so a stream
	// started there may enter between the halves of a fused pair.
	mid uint64
}

func buildStepwiseRef(p *isa.Program, image *arch.Memory, limit uint64) *stepwiseRef {
	n := refLen(p, image, limit)
	st := arch.NewState(image.Clone())
	ref := &stepwiseRef{p: p, final: st}
	for !st.Halted {
		if ref.mid == 0 && st.Retired >= n/2 && st.Retired > 0 {
			prev := &ref.events[st.Retired-1]
			if in := &p.Insts[st.PC]; st.Retired >= min(n/2+1000, n-1) || (in.Op.IsBranch() && int(prev.Idx) == st.PC-1) {
				ref.mid = st.Retired
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
		// Each flag is its StepInfo field; MemAddr is zero unless a load or
		// store executed.
		var flags uint8
		for _, f := range []struct {
			set bool
			bit uint8
		}{
			{info.IsLoad, arch.EvLoad},
			{info.IsStore, arch.EvStore},
			{info.IsBranch, arch.EvBranch},
			{info.Taken, arch.EvTaken},
			{info.Squashed, arch.EvSquash},
		} {
			if f.set {
				flags |= f.bit
			}
		}
		ref.events = append(ref.events, arch.ExecEvent{MemAddr: info.MemAddr, Idx: int32(idx), Flags: flags})
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
// Exactly the last record of a halting reference must read as the halt.
// The end of the stream must match too: nil after the halt, or the
// reference's error at the same sequence.
func checkStream(t *testing.T, label string, s *Stream, ref *stepwiseRef, from uint64, hold int) {
	t.Helper()
	end := uint64(len(ref.events))
	var held []*arch.ExecEvent // the records at sequences seq+1-len(held) .. seq
	for seq := from; seq < end; seq++ {
		d, err := s.At(seq)
		if err != nil {
			t.Fatalf("%s: seq %d: %v", label, seq, err)
		}
		if d == nil || *d != ref.events[seq] {
			t.Fatalf("%s: seq %d = %+v, want %+v", label, seq, d, ref.events[seq])
		}
		if halt := isHalt(ref.p, d); halt != (ref.err == nil && seq == end-1) {
			t.Fatalf("%s: seq %d of %d reads as halt %v", label, seq, end, halt)
		}
		held = append(held, d)
		if len(held) > hold {
			if old, oldSeq := held[0], seq-uint64(hold); *old != ref.events[oldSeq] {
				t.Fatalf("%s: held seq %d changed to %+v", label, oldSeq, old)
			}
			held = held[1:]
			s.Release(seq + 1 - uint64(hold))
		}
	}
	d, err := s.At(end)
	switch {
	case ref.err == nil && (d != nil || err != nil):
		t.Fatalf("%s: seq %d past the halt = %+v, %v", label, end, d, err)
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

// TestStreamDifferential pins every stream source to the step-wise
// reference, field by field, through checkStream: the pre-decoded trace
// read in place, the lazy stream from reset, and the stream reading a
// mid-stream checkpoint's recording, over the 12 kernels, 50 generated
// programs, and squashSrc.
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
		if tr.Len() != uint64(len(ref.events)) {
			t.Fatalf("%s: trace length %d, want %d", pg.name, tr.Len(), len(ref.events))
		}
		s := StreamFor(pg.p, pg.image, math.MaxUint64, tr)
		if s.sb != nil {
			t.Fatalf("%s: StreamFor interprets instead of reading the trace", pg.name)
		}
		checkStream(t, pg.name+" StreamFor", s, ref, 0, hold)
		checkStream(t, pg.name+" NewStream", NewStream(pg.p, pg.image.Clone(), math.MaxUint64), ref, 0, hold)
		if ref.mid == 0 {
			t.Fatalf("%s: no mid-stream sequence", pg.name)
		}
		ck := midCheckpoint(t, pg.p, pg.image, ref.mid)
		checkStream(t, fmt.Sprintf("%s StreamFrom(%d)", pg.name, ck.Seq), StreamFrom(ck), ref, ck.Seq, hold)
	}
}

// midCheckpoint returns the fast-forward's checkpoint at sequence mid: the
// start of interval 1 with K = mid and no warm-up. Its recording runs past
// 2*mid >= N-1, so it reaches the halt.
func midCheckpoint(t *testing.T, p *isa.Program, image *arch.Memory, mid uint64) *Checkpoint {
	t.Helper()
	spec := CheckpointSpec{Hier: mem.BaseConfig(), PredictorEntries: 1024, Lookahead: 1}
	src, err := StreamCheckpoints(context.Background(), p, image, SampleConfig{Interval: mid}, spec)
	if err != nil {
		t.Fatal(err)
	}
	var ck *Checkpoint
	for c := range src.C {
		if c.Seq == mid {
			ck = c
		}
	}
	if _, _, _, err := src.Wait(); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatalf("no checkpoint at seq %d", mid)
	}
	return ck
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
