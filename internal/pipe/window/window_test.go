package window

import (
	"math/rand"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
)

func r(i int) isa.Reg { return isa.IntReg(i) }

// dyn is one dynamic instruction of a test stream: the static instruction
// and the event its execution records. Window.Insert gives each the next
// seq, so the helpers take none.
type dyn struct {
	in isa.Inst
	ev arch.ExecEvent
}

// alu returns a dynamic add dst = a, b.
func alu(dst, a, b isa.Reg) dyn {
	return dyn{in: isa.Inst{Op: isa.OpAdd, QP: isa.P0, Dst: dst, Src1: a, Src2: b}}
}

func load(dst, addr isa.Reg) dyn {
	return dyn{in: isa.Inst{Op: isa.OpLd4, QP: isa.P0, Dst: dst, Src1: addr},
		ev: arch.ExecEvent{Flags: arch.EvLoad, MemAddr: 0x1000}}
}

func store(addr, val isa.Reg) dyn {
	return dyn{in: isa.Inst{Op: isa.OpSt4, QP: isa.P0, Src1: addr, Src2: val},
		ev: arch.ExecEvent{Flags: arch.EvStore, MemAddr: 0x2000}}
}

func branch() dyn {
	return dyn{in: isa.Inst{Op: isa.OpBr, QP: isa.P0}, ev: arch.ExecEvent{Flags: arch.EvBranch}}
}

// insert inserts d as a run does: its event, whose Idx indexes a program of
// the one instruction, with that instruction's operand-table entry.
func insert(w *Window, d dyn) *Entry {
	ops := sim.NewOperands(&isa.Program{Insts: []isa.Inst{d.in}})
	ev := d.ev
	return w.Insert(&ev, &ops[ev.Idx])
}

// polledReady is the whole-window condition event-driven wakeup replaces:
// every live producer is done and its completion has arrived.
func polledReady(w *Window, seq, now uint64) bool {
	e := w.At(seq)
	for _, dep := range e.deps[:e.ndeps] {
		if dep < w.Base() {
			continue
		}
		if p := w.At(dep); p.State != Done || p.Completion > now {
			return false
		}
	}
	return true
}

func woken(w *Window, seq uint64) bool {
	slot := seq & w.mask
	return w.woken[slot>>6]&(1<<(slot&63)) != 0
}

// checkReady fails unless every live waiting entry is woken-and-ready
// exactly when the polled condition holds, and woken exactly when it has no
// pending producer.
func checkReady(t *testing.T, w *Window, now uint64) {
	t.Helper()
	for seq := w.Base(); seq < w.End(); seq++ {
		e := w.At(seq)
		if e.State != Waiting {
			if woken(w, seq) {
				t.Fatalf("seq %d: %v entry still woken", seq, e.State)
			}
			continue
		}
		if woken(w, seq) != (e.pending == 0) {
			t.Fatalf("seq %d: woken %v with %d pending", seq, woken(w, seq), e.pending)
		}
		if got, want := woken(w, seq) && e.ReadyAt <= now, polledReady(w, seq, now); got != want {
			t.Fatalf("seq %d at cycle %d: event-driven ready %v, polled %v", seq, now, got, want)
		}
	}
}

func hier() *mem.Hierarchy { return mem.MustNewHierarchy(mem.BaseConfig()) }

// TestSquashReinsertStaleEdge: a squashed consumer's refetch reuses its seq
// and ring slot. If the squash left the consumer's edge on its producer's
// list, the producer's issue would wake whatever now occupies the slot.
func TestSquashReinsertStaleEdge(t *testing.T) {
	w := New(64, 0)
	h := hier()
	insert(w, alu(r(8), r(9), r(9)))      // seq 0, Q: writes r8
	insert(w, alu(r(1), r(9), r(9)))      // seq 1, P: writes r1
	insert(w, branch())                   // seq 2, mispredicts
	c := insert(w, alu(r(3), r(1), r(1))) // seq 3, reads P twice
	if c.pending != 2 || woken(w, 3) {
		t.Fatalf("consumer of an unissued producer: pending %d, woken %v", c.pending, woken(w, 3))
	}
	w.Squash(3)
	// The refetched seq 3 waits on Q only; P's issue must not touch it.
	d := insert(w, alu(r(4), r(8), isa.R0))
	if d.pending != 1 {
		t.Fatalf("refetched entry pending %d, want 1", d.pending)
	}
	p := w.Issue(1, 0, h)
	if woken(w, 3) || d.pending != 1 || d.ReadyAt != 0 {
		t.Fatalf("producer P woke the refetched slot: woken %v pending %d readyAt %d", woken(w, 3), d.pending, d.ReadyAt)
	}
	checkReady(t, w, 1)
	q := w.Issue(0, 1, h)
	if !woken(w, 3) || d.ReadyAt != q.Completion {
		t.Fatalf("Q's issue: woken %v readyAt %d, want true %d", woken(w, 3), d.ReadyAt, q.Completion)
	}
	// A consumer inserted after P issued folds P's completion in directly.
	e := insert(w, alu(r(5), r(1), isa.R0))
	if e.pending != 0 || e.ReadyAt != p.Completion || !woken(w, 4) {
		t.Fatalf("late consumer: pending %d readyAt %d woken %v", e.pending, e.ReadyAt, woken(w, 4))
	}
	checkReady(t, w, 2)
}

// TestSmallRing: a capacity below 64 still gets whole bitmap words, and
// select and promote stay correct while seqs run far past the ring size.
func TestSmallRing(t *testing.T) {
	w := New(8, 1000)
	if len(w.ring) != minSlots {
		t.Fatalf("ring of %d slots for capacity 8, want %d", len(w.ring), minSlots)
	}
	h := hier()
	var skip sim.SkipState
	now := uint64(0)
	for seq := uint64(1000); seq < 1300; seq++ {
		// A chain: each entry reads the previous one's destination.
		insert(w, alu(r(1+int(seq%2)), r(1+int((seq+1)%2)), isa.R0))
		if w.Len() < 8 {
			continue
		}
		checkReady(t, w, now)
		got, ok := w.NextWoken(w.Base())
		if !ok || got != w.Base() {
			t.Fatalf("cycle %d: NextWoken = %d %v, want head %d", now, got, ok, w.Base())
		}
		w.Issue(got, now, h)
		w.Promote(now, &skip)
		now++
		if e := w.At(w.Base()); e.State != Done || e.Completion > now {
			t.Fatalf("head %d not done at cycle %d", w.Base(), now)
		}
		w.Retire()
	}
}

// TestSelectAcrossWrap: woken entries straddling the ring's end come back
// in seq order.
func TestSelectAcrossWrap(t *testing.T) {
	w := New(64, 60)
	for seq := uint64(60); seq < 70; seq++ {
		insert(w, alu(r(int(seq-50)), isa.R0, isa.R0))
	}
	want := uint64(60)
	for seq, ok := w.NextWoken(w.Base()); ok; seq, ok = w.NextWoken(seq + 1) {
		if seq != want {
			t.Fatalf("NextWoken yielded %d, want %d", seq, want)
		}
		want++
	}
	if want != 70 {
		t.Fatalf("select stopped at %d, want 70", want)
	}
	// Issuing one in the middle removes exactly it from the walk.
	w.Issue(63, 0, hier())
	if seq, _ := w.NextWoken(63); seq != 64 {
		t.Fatalf("after issuing 63, NextWoken(63) = %d, want 64", seq)
	}
}

// TestDuplicateProducer: one consumer reading the same producer through two
// operands holds one pending count per operand, and the producer's single
// issue releases both. The qualifying predicate counts as an operand too.
func TestDuplicateProducer(t *testing.T) {
	w := New(64, 0)
	h := hier()
	insert(w, alu(r(1), r(9), r(9))) // seq 0, P
	insert(w, dyn{in: isa.Inst{Op: isa.OpCmpEq, QP: isa.P0,
		Dst: isa.PredReg(1), Dst2: isa.PredReg(2), Src1: r(9), Src2: r(9)}}) // seq 1, cmp
	c := insert(w, dyn{in: isa.Inst{Op: isa.OpAdd, QP: isa.PredReg(1),
		Dst: r(3), Src1: r(1), Src2: r(1)}})
	if c.ndeps != 3 || c.pending != 3 {
		t.Fatalf("consumer ndeps %d pending %d, want 3 and 3", c.ndeps, c.pending)
	}
	p := w.Issue(0, 5, h)
	if c.pending != 1 || woken(w, 2) || c.ReadyAt != p.Completion {
		t.Fatalf("after P: pending %d woken %v readyAt %d", c.pending, woken(w, 2), c.ReadyAt)
	}
	w.Issue(1, 7, h)
	if c.pending != 0 || !woken(w, 2) || c.ReadyAt != 8 {
		t.Fatalf("after cmp: pending %d woken %v readyAt %d", c.pending, woken(w, 2), c.ReadyAt)
	}
	checkReady(t, w, 8)
}

// TestStoreWaitingBefore: a load is held behind an older store until that
// store issues; a younger store does not hold it.
func TestStoreWaitingBefore(t *testing.T) {
	w := New(64, 0)
	h := hier()
	insert(w, alu(r(1), r(9), r(9))) // seq 0, address producer, not yet issued
	insert(w, store(r(1), r(2)))     // seq 1, waits on seq 0
	insert(w, load(r(3), r(4)))      // seq 2, independent, woken
	insert(w, store(r(4), r(5)))     // seq 3, younger store, woken
	if !woken(w, 2) {
		t.Fatal("independent load not woken")
	}
	if !w.StoreWaitingBefore(2) {
		t.Fatal("load not held behind an older unissued store")
	}
	w.Issue(0, 0, h)
	if !w.StoreWaitingBefore(2) {
		t.Fatal("woken-but-unissued store stopped holding the load")
	}
	w.Issue(1, 1, h)
	if w.StoreWaitingBefore(2) {
		t.Fatal("load still held after the older store issued")
	}
	if !w.StoreWaitingBefore(4) {
		t.Fatal("younger unissued store at seq 3 not seen from seq 4")
	}
}

// TestRandomAgainstPolled drives random instruction streams through insert,
// oldest-first issue, squash, promote and retire, checking after every step
// that event-driven readiness equals the polled whole-window condition and
// that no issued entry outlives its promote cycle.
func TestRandomAgainstPolled(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{8, 32, 64, 100, 256}[rng.Intn(5)]
		start := uint64(rng.Intn(200))
		w := New(capacity, start)
		h := hier()
		var skip sim.SkipState
		reg := func() isa.Reg { return r(1 + rng.Intn(6)) }
		now := uint64(0)
		for cycle := 0; cycle < 2000; cycle++ {
			skip.Begin()
			for w.Len() > 0 {
				e := w.At(w.Base())
				if e.State != Done || e.Completion > now {
					break
				}
				w.Retire()
			}
			for n := rng.Intn(4); n > 0 && w.Len() < capacity; n-- {
				var d dyn
				switch rng.Intn(6) {
				case 0:
					d = load(reg(), reg())
					d.ev.MemAddr = uint32(rng.Intn(1 << 20))
				case 1:
					d = store(reg(), reg())
				case 2:
					d = branch()
				default:
					d = alu(reg(), reg(), reg())
				}
				insert(w, d)
			}
			checkReady(t, w, now)
			issued := 0
			for seq, ok := w.NextWoken(w.Base()); ok && issued < 6; seq, ok = w.NextWoken(seq + 1) {
				if w.At(seq).ReadyAt > now || rng.Intn(4) == 0 {
					continue
				}
				e := w.Issue(seq, now, h)
				issued++
				if e.D.Flags&arch.EvBranch != 0 && rng.Intn(3) == 0 {
					w.Squash(int(seq - w.Base() + 1))
					break
				}
			}
			w.Promote(now, &skip)
			for seq := w.Base(); seq < w.End(); seq++ {
				if e := w.At(seq); e.State == Issued && e.Completion <= now+1 {
					t.Fatalf("seed %d: seq %d issued past its promote cycle", seed, seq)
				}
			}
			now++
			checkReady(t, w, now)
		}
	}
}
