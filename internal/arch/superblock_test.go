package arch

import (
	"fmt"
	"strings"
	"testing"

	"multipass/internal/isa"
	"multipass/internal/xcheck/progen"
)

// mustAssemble builds a program from assembler text.
func mustAssemble(t testing.TB, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// loopSrc is a small counted loop with the hot fused pattern (compare
// feeding the back-edge branch), a predicated store, and memory traffic.
const loopSrc = `
	movi r1 = 200
	movi r2 = 0
	movi r3 = 4096
loop:
	ld4 r4 = [r3+0]
	add r2 = r2, r4
	st4 [r3+4] = r2
	cmpi.ltu p1, p2 = r2, 1000
	(p2) st4 [r3+8] = r1
	subi r1 = r1, 1
	cmpi.ne p3, p4 = r1, 0
	(p3) br loop
	halt
`

// runBoth executes p on identical images through the step-wise reference
// and the superblock interpreter and requires byte-identical outcomes.
func runBoth(t *testing.T, p *isa.Program, image *Memory, limit uint64) (*RunResult, *RunResult) {
	t.Helper()
	ref, refErr := RunStepwise(p, image.Clone(), limit)
	got, gotErr := Run(p, image.Clone(), limit)
	if (refErr == nil) != (gotErr == nil) || (refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("error mismatch: stepwise=%v superblock=%v", refErr, gotErr)
	}
	compareRuns(t, ref, got)
	return ref, got
}

func compareRuns(t *testing.T, ref, got *RunResult) {
	t.Helper()
	if !ref.State.RF.Equal(got.State.RF) {
		t.Fatalf("register files differ: %v", ref.State.RF.Diff(got.State.RF))
	}
	if !ref.State.Mem.Equal(got.State.Mem) {
		t.Fatalf("memories differ: %v", ref.State.Mem.DiffWords(got.State.Mem, 4))
	}
	if ref.State.Retired != got.State.Retired || ref.State.PC != got.State.PC || ref.State.Halted != got.State.Halted {
		t.Fatalf("state differs: retired %d/%d pc %d/%d halted %v/%v",
			ref.State.Retired, got.State.Retired, ref.State.PC, got.State.PC, ref.State.Halted, got.State.Halted)
	}
	if ref.Loads != got.Loads || ref.Stores != got.Stores || ref.Branches != got.Branches || ref.Taken != got.Taken {
		t.Fatalf("counts differ: loads %d/%d stores %d/%d branches %d/%d taken %d/%d",
			ref.Loads, got.Loads, ref.Stores, got.Stores, ref.Branches, got.Branches, ref.Taken, got.Taken)
	}
}

func TestSuperblockLoopMatchesStepwise(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	image := NewMemory()
	image.Store(4096, 4, 7)
	ref, _ := runBoth(t, p, image, 1<<20)
	if !ref.State.Halted || ref.Loads == 0 || ref.Stores == 0 || ref.Taken == 0 {
		t.Fatalf("loop did not exercise the interesting paths: %+v", ref)
	}
}

// TestSuperblockEveryStopBoundary splits the superblock run at every
// possible retired count — including boundaries landing between the two
// halves of a fused pair — and requires each prefix-and-resume execution to
// land exactly on the step-wise trajectory.
func TestSuperblockEveryStopBoundary(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	image := NewMemory()
	image.Store(4096, 4, 7)
	ref, err := RunStepwise(p, image.Clone(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	n := ref.State.Retired
	sb := NewSBProgram(p)
	for cut := uint64(0); cut <= n; cut += 1 {
		st := NewState(image.Clone())
		var c1, c2 ExecCounts
		c1, err := sb.Exec(st, cut)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st.Retired != cut && !st.Halted {
			t.Fatalf("cut %d: stopped at %d", cut, st.Retired)
		}
		// Cross-check the prefix state against a step-wise prefix.
		pst := NewState(image.Clone())
		for pst.Retired < cut && !pst.Halted {
			if _, err := pst.Step(p); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
		}
		if !pst.RF.Equal(st.RF) || pst.PC != st.PC || pst.Retired != st.Retired {
			t.Fatalf("cut %d: prefix state diverged (pc %d/%d retired %d/%d)",
				cut, pst.PC, st.PC, pst.Retired, st.Retired)
		}
		if !st.Halted {
			c2, err = sb.Exec(st, 1<<62)
			if err != nil {
				t.Fatalf("cut %d resume: %v", cut, err)
			}
		}
		got := &RunResult{State: st,
			Loads:    c1.Loads + c2.Loads,
			Stores:   c1.Stores + c2.Stores,
			Branches: c1.Branches + c2.Branches,
			Taken:    c1.Taken + c2.Taken,
		}
		compareRuns(t, ref, got)
	}
}

func TestSuperblockFusionOnComplement(t *testing.T) {
	// The branch predicated on the compare's complement (Dst2) must take the
	// inverted condition.
	src := `
	movi r1 = 5
loop:
	subi r1 = r1, 1
	cmpi.eq p1, p2 = r1, 0
	(p2) br loop
	halt
`
	p := mustAssemble(t, src)
	ref, _ := runBoth(t, p, NewMemory(), 1<<16)
	if got := ref.State.RF.Read(isa.IntReg(1)).Uint32(); got != 0 {
		t.Fatalf("r1 = %d, want 0", got)
	}
}

func TestSuperblockNoFusionAcrossLeader(t *testing.T) {
	// The branch at `back` is itself a branch target, so the preceding
	// compare must not swallow it; jumping to `back` re-evaluates only the
	// branch with whatever predicate value is live.
	src := `
	movi r1 = 3
	movi r2 = 0
loop:
	addi r2 = r2, 1
	cmpi.lt p1, p2 = r2, 10
back:
	(p1) br loop
	subi r1 = r1, 1
	cmpi.ne p3, p4 = r1, 0
	(p3) br back
	halt
`
	p := mustAssemble(t, src)
	sb := NewSBProgram(p)
	for i := range p.Insts {
		if sb.opAt[i] < 0 {
			in := &p.Insts[i-1]
			if !isCompareOp(in.Op) {
				t.Fatalf("inst %d swallowed by non-compare", i)
			}
		}
	}
	runBoth(t, p, NewMemory(), 1<<16)
}

func TestSuperblockSquashAndHardwired(t *testing.T) {
	// Predicated-false ops must retire with no effect; destinations r0/p0
	// must discard writes; compares targeting p0 keep the complement.
	src := `
	movi r1 = 1
	cmpi.eq p1, p2 = r1, 99
	(p1) movi r2 = 111
	(p2) movi r3 = 222
	cmpi.eq p0, p5 = r1, 1
	(p5) movi r4 = 333
	add r0 = r1, r1
	(p1) halt
	halt
`
	p := mustAssemble(t, src)
	ref, _ := runBoth(t, p, NewMemory(), 1<<16)
	rf := ref.State.RF
	if rf.Read(isa.IntReg(2)).Uint32() != 0 || rf.Read(isa.IntReg(3)).Uint32() != 222 {
		t.Fatal("squash semantics broken")
	}
	if rf.Read(isa.IntReg(4)).Uint32() != 0 {
		t.Fatal("complement of a p0-destination compare leaked")
	}
	if rf.Read(isa.R0) != 0 || !rf.Read(isa.P0).Bool() {
		t.Fatal("hardwired register clobbered")
	}
}

func TestSuperblockNaTPropagation(t *testing.T) {
	// NaT bits flow through ALU ops, compares (both destinations), and
	// loads (address register only), and are cleared by non-NaT writes.
	src := `
	add r2 = r1, r0
	cmp.eq p1, p2 = r2, r0
	ld4 r3 = [r2+4096]
	movi r2 = 7
	halt
`
	p := mustAssemble(t, src)
	run := func(step bool) *State {
		st := NewState(NewMemory())
		st.RF.WriteNaT(isa.IntReg(1))
		if step {
			for !st.Halted {
				if _, err := st.Step(p); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			if _, err := NewSBProgram(p).Exec(st, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	ref, got := run(true), run(false)
	if !ref.RF.Equal(got.RF) {
		t.Fatalf("NaT handling diverged: %v", ref.RF.Diff(got.RF))
	}
	if !ref.RF.ReadNaT(isa.PredReg(1)) || !ref.RF.ReadNaT(isa.PredReg(2)) || !ref.RF.ReadNaT(isa.IntReg(3)) {
		t.Fatal("expected NaT to propagate to p1, p2, r3")
	}
	if ref.RF.ReadNaT(isa.IntReg(2)) {
		t.Fatal("movi should have cleared r2's NaT")
	}
}

func TestSuperblockErrorParity(t *testing.T) {
	// Limit overrun and runaway PC must produce the same errors as the
	// step-wise loop, at the same state.
	p := mustAssemble(t, loopSrc)
	image := NewMemory()
	for _, limit := range []uint64{0, 1, 5, 17} {
		ref, refErr := RunStepwise(p, image.Clone(), limit)
		got, gotErr := Run(p, image.Clone(), limit)
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
			t.Fatalf("limit %d: stepwise=%v superblock=%v", limit, refErr, gotErr)
		}
		compareRuns(t, ref, got)
	}
	// A program that falls off the end.
	off := &isa.Program{Insts: []isa.Inst{
		{Op: isa.OpAddI, QP: isa.P0, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Imm: 1},
	}}
	ref, refErr := RunStepwise(off, NewMemory(), 10)
	got, gotErr := Run(off, NewMemory(), 10)
	if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
		t.Fatalf("fall-off: stepwise=%v superblock=%v", refErr, gotErr)
	}
	compareRuns(t, ref, got)
}

// wantEvent is the event a StepInfo implies, derived independently of the
// interpreter's own stepOne mapping.
func wantEvent(info StepInfo) ExecEvent {
	e := ExecEvent{Idx: int32(info.Index)}
	if info.Squashed {
		e.Flags |= EvSquash
	}
	if info.IsLoad {
		e.Flags |= EvLoad
		e.MemAddr = info.MemAddr
	}
	if info.IsStore {
		e.Flags |= EvStore
		e.MemAddr = info.MemAddr
	}
	if info.IsBranch {
		e.Flags |= EvBranch
	}
	if info.Taken {
		e.Flags |= EvTaken
	}
	return e
}

// TestSuperblockExecTraceEvents replays the event stream against the
// step-wise StepInfo sequence: same instruction indices, same
// classification and squash flags, same effective addresses, in the same
// retire order. Chunks end both where the event buffer runs out (never
// inside a fused pair) and at stop points every stride instructions, which
// split fused pairs and make the next call resume on the swallowed branch
// through the reference step.
func TestSuperblockExecTraceEvents(t *testing.T) {
	p := mustAssemble(t, loopSrc)
	image := NewMemory()
	image.Store(4096, 4, 7)

	var want []ExecEvent
	st := NewState(image.Clone())
	for !st.Halted {
		info, err := st.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, wantEvent(info))
	}
	var squashed int
	for _, e := range want {
		if e.Flags&EvSquash != 0 {
			squashed++
		}
	}
	if squashed == 0 {
		t.Fatal("loopSrc retires no squashed instruction; the squash flag is untested")
	}

	sb := NewSBProgram(p)
	for _, bufSize := range []int{2, 3, 7, 64, len(want) + 8} {
		for _, stride := range []uint64{1, 2, 3, 5, 1 << 62} {
			var got []ExecEvent
			gst := NewState(image.Clone())
			buf := make([]ExecEvent, bufSize)
			for !gst.Halted {
				_, n, err := sb.ExecTrace(gst, gst.Retired+stride, buf)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 && !gst.Halted {
					t.Fatalf("bufSize %d stride %d: no progress", bufSize, stride)
				}
				got = append(got, buf[:n]...)
			}
			if len(got) != len(want) {
				t.Fatalf("bufSize %d stride %d: %d events, want %d", bufSize, stride, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("bufSize %d stride %d: event %d = %+v, want %+v", bufSize, stride, i, got[i], want[i])
				}
			}
			if gst.Retired != uint64(len(want)) {
				t.Fatalf("bufSize %d stride %d: retired %d", bufSize, stride, gst.Retired)
			}
		}
	}
}

// TestSuperblockProgenDifferential runs generated programs through both
// interpreters; the heavyweight version (every corpus seed, all models)
// lives in internal/xcheck.
func TestSuperblockProgenDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		opts := progen.ForSeed(seed)
		p := progen.MustGenerate(opts)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runBoth(t, p, NewMemory(), 1<<22)
		})
	}
}

func TestSuperblockFusionHappens(t *testing.T) {
	// Sanity-check the optimization is actually firing on the hot pattern:
	// loopSrc has two fusible compare+branch pairs.
	p := mustAssemble(t, loopSrc)
	sb := NewSBProgram(p)
	fused := 0
	for i := range sb.ops {
		if sb.ops[i].code == uCmpBr {
			fused++
		}
	}
	if fused != 1 {
		// Only the back-edge pair fuses: the (p2) store after the first
		// compare blocks fusion there.
		t.Fatalf("fused %d pairs, want 1", fused)
	}
	if !strings.Contains(loopSrc, "(p3) br loop") {
		t.Fatal("test source changed; update expectations")
	}
}

func BenchmarkRunStepwise(b *testing.B) {
	p := mustAssemble(b, loopSrc)
	image := NewMemory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunStepwise(p, image.Clone(), 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSuperblock(b *testing.B) {
	p := mustAssemble(b, loopSrc)
	image := NewMemory()
	sb := NewSBProgram(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sb.Run(image.Clone(), 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}
