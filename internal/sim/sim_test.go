package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
)

func testProgram() *isa.Program {
	return isa.MustAssemble(`
	movi r1 = 3
	movi r2 = 0
loop:
	addi r2 = r2, 1
	subi r1 = r1, 1
	cmpi.ne p1, p2 = r1, 0 ;;
	(p1) br loop
	halt
`)
}

func TestStreamProducesDynamicSequence(t *testing.T) {
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	// 2 setup + 3 iterations of 4 + halt = 15 dynamic instructions, in this
	// static order.
	want := []int32{0, 1, 2, 3, 4, 5, 2, 3, 4, 5, 2, 3, 4, 5, 6}
	var got []int32
	var last *DynInst
	for seq := uint64(0); ; seq++ {
		d, err := s.At(seq)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			break
		}
		got = append(got, d.Index)
		last = d
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("static indices %v, want %v", got, want)
	}
	if last == nil || !last.Halt {
		t.Fatal("stream did not end with halt")
	}
	if d, err := s.At(14); err != nil || d == nil || !d.Halt {
		t.Errorf("At(14) = %+v, %v; want the halt", d, err)
	}
	if d, err := s.At(15); err != nil || d != nil {
		t.Errorf("At(15) = %+v, %v; want nil past the halt", d, err)
	}
}

// TestDynInstSize pins the dynamic instruction record at 24 bytes: a trace
// holds one per retired instruction, so every byte here costs TraceLimit
// bytes in a full-size trace.
func TestDynInstSize(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got != 24 {
		t.Fatalf("sizeof(DynInst) = %d, want 24", got)
	}
}

func TestStreamBranchMetadata(t *testing.T) {
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	// Seq 5 is the first (p1) br loop, taken twice then not taken: the
	// record after a taken branch sits at its target.
	d, err := s.At(5)
	if err != nil {
		t.Fatal(err)
	}
	next, err := s.At(6)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsBranch || !d.Taken || next.Index != d.Inst.Target || next.Index != 2 {
		t.Errorf("first branch: %+v, next %+v", d, next)
	}
	d, _ = s.At(13)
	next, _ = s.At(14)
	if !d.IsBranch || d.Taken || next.Index != d.Index+1 {
		t.Errorf("last branch should be not taken and fall through: %+v, next %+v", d, next)
	}
}

func TestStreamReleaseAndPointerStability(t *testing.T) {
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	d3, _ := s.At(3)
	d9, _ := s.At(9)
	idx3, idx9 := d3.Index, d9.Index
	s.Release(8)
	// Held pointers stay valid after release.
	if d3.Index != idx3 || d9.Index != idx9 {
		t.Fatal("DynInst pointers invalidated by Release")
	}
	// Window access below the base panics.
	defer func() {
		if recover() == nil {
			t.Error("released access did not panic")
		}
	}()
	s.At(3)
}

func TestStreamLimit(t *testing.T) {
	p := isa.MustAssemble("loop: jmp loop\nhalt")
	s := NewStream(p, arch.NewMemory(), 50)
	var err error
	for seq := uint64(0); err == nil; seq++ {
		_, err = s.At(seq)
	}
	if err == nil {
		t.Fatal("instruction limit not enforced")
	}
}

func TestFetchUnitBasics(t *testing.T) {
	h := mem.MustNewHierarchy(mem.BaseConfig())
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	f := NewFetchUnit(s, NewOperands(s.prog), h, 6)
	f.SetLimit(1000)
	r0, ok, err := f.ReadyAt(0)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	// Cold I-cache: the first group waits for the line.
	if r0 < 100 {
		t.Errorf("first fetch ready at %d; expected cold I-miss delay", r0)
	}
	// Later instructions on the same line are at most a few groups later.
	r6, _, _ := f.ReadyAt(6)
	if r6 < r0 || r6 > r0+10 {
		t.Errorf("seq 6 ready at %d (first at %d)", r6, r0)
	}
}

func TestFetchFlushDelaysRefetch(t *testing.T) {
	h := mem.MustNewHierarchy(mem.BaseConfig())
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	f := NewFetchUnit(s, NewOperands(s.prog), h, 6)
	f.SetLimit(1000)
	before, _, _ := f.ReadyAt(6)
	f.Flush(5, before+500)
	after, _, _ := f.ReadyAt(6)
	if after < before+500 {
		t.Errorf("post-flush ready %d, want >= %d", after, before+500)
	}
	// Sequences before the restart point keep their old times.
	r4, _, _ := f.ReadyAt(4)
	if r4 >= before+500 {
		t.Errorf("pre-flush seq delayed: %d", r4)
	}
}

func TestFetchLimitPanic(t *testing.T) {
	h := mem.MustNewHierarchy(mem.BaseConfig())
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	f := NewFetchUnit(s, NewOperands(s.prog), h, 6)
	f.SetLimit(4)
	defer func() {
		if recover() == nil {
			t.Error("query beyond limit did not panic")
		}
	}()
	f.ReadyAt(4)
}

func TestStatsConsistency(t *testing.T) {
	var s Stats
	s.Cycles = 10
	s.Cat[StallExecution] = 4
	s.Cat[StallLoad] = 6
	if err := s.CheckConsistency(); err != nil {
		t.Error(err)
	}
	s.Cycles = 11
	if err := s.CheckConsistency(); err == nil {
		t.Error("inconsistent stats accepted")
	}
}

func TestStatsDerived(t *testing.T) {
	var base, fast Stats
	base.Cycles = 200
	fast.Cycles = 100
	fast.Retired = 300
	if got := fast.Speedup(&base); got != 2 {
		t.Errorf("speedup = %v", got)
	}
	if got := fast.IPC(); got != 3 {
		t.Errorf("IPC = %v", got)
	}
	fast.Cat[StallFrontEnd] = 10
	fast.Cat[StallLoad] = 20
	if got := fast.TotalStalls(); got != 30 {
		t.Errorf("total stalls = %d", got)
	}
}

func TestRegSet(t *testing.T) {
	var s RegSet
	in := map[int16]bool{}
	// One register of each class, plus the first and last flat index and
	// both sides of a word boundary.
	for _, f := range []int{isa.IntReg(5).Flat(), isa.FPReg(5).Flat(), isa.PredReg(5).Flat(), 0, 63, 64, isa.NumFlatRegs - 1} {
		s.Add(int16(f))
		in[int16(f)] = true
	}
	var zero RegSet
	for f := int16(0); f < isa.NumFlatRegs; f++ {
		if s.Has(f) != in[f] {
			t.Errorf("Has(%d) = %v, want %v", f, s.Has(f), in[f])
		}
		if zero.Has(f) {
			t.Errorf("zero RegSet has %d", f)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Caps.MaxIssue = 0 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.BufferSize = 0 },
		func(c *Config) { c.MispredictPenalty = -1 },
		func(c *Config) { c.MaxInsts = 0 },
		func(c *Config) { c.PredictorEntries = 3 },
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestProducerKindStallMapping(t *testing.T) {
	if ProducerLoad.StallFor() != StallLoad {
		t.Error("load producer should map to load stall")
	}
	if ProducerOther.StallFor() != StallOther || ProducerNone.StallFor() != StallOther {
		t.Error("non-load producers should map to other")
	}
}

func TestStreamAccessors(t *testing.T) {
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	end := uint64(0)
	for ; ; end++ {
		d, err := s.At(end)
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			break
		}
	}
	if d, err := s.At(end - 1); err != nil || d == nil || !d.Halt {
		t.Errorf("At(%d) = %+v, %v after full interpretation; want the halt", end-1, d, err)
	}
	fin := s.FinalState()
	if fin == nil || !fin.Halted {
		t.Error("FinalState not halted after the stream ended")
	}
	if got := fin.RF.Read(isa.IntReg(2)).Uint32(); got != 3 {
		t.Errorf("final r2 = %d, want 3", got)
	}
}

func TestFetchRelease(t *testing.T) {
	h := mem.MustNewHierarchy(mem.BaseConfig())
	s := NewStream(testProgram(), arch.NewMemory(), 1000)
	f := NewFetchUnit(s, NewOperands(s.prog), h, 6)
	f.SetLimit(1 << 20)
	if _, _, err := f.ReadyAt(10); err != nil {
		t.Fatal(err)
	}
	f.Release(8)
	// Access above the release point still works.
	if _, _, err := f.ReadyAt(9); err != nil {
		t.Fatal(err)
	}
	// Releasing twice (and backwards) is harmless.
	f.Release(8)
	f.Release(4)
	defer func() {
		if recover() == nil {
			t.Error("query below released window did not panic")
		}
	}()
	f.ReadyAt(5)
}

func TestStallKindString(t *testing.T) {
	want := map[StallKind]string{
		StallExecution: "execution",
		StallFrontEnd:  "front-end",
		StallOther:     "other",
		StallLoad:      "load",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if StallKind(99).String() == "" {
		t.Error("out-of-range stall kind renders empty")
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Error("IPC of empty stats")
	}
	var base Stats
	base.Cycles = 100
	if s.Speedup(&base) != 0 {
		t.Error("speedup of zero-cycle stats")
	}
}

func TestConfigErrorMessage(t *testing.T) {
	c := Default()
	c.MaxInsts = 0
	err := c.Validate()
	if err == nil || err.Error() == "" {
		t.Error("config error has no message")
	}
}
