// Package window is the instruction window shared by the oracle-driven
// out-of-order timing models (ooo, ooo-realistic and cgooo): the in-flight
// entry ring, the rename table, dependence capture, event-driven wakeup,
// oldest-first select iteration, promote, squash and the stall-attribution
// scan.
//
// Wakeup is event-driven rather than polled. At insert each entry records
// how many of its producers have not issued yet (its pending count) and the
// latest completion among those that have (ReadyAt). When a producer issues
// it walks its consumer list, lowers each consumer's pending count, raises
// its ReadyAt, and sets the consumer's bit in the woken bitmap once the count
// reaches zero. Select walks only the woken bitmap and promote only the
// bitmap of issued-but-not-done entries, both in sequence order from the
// head, so a cycle costs in proportion to the entries that can act rather
// than to the whole window.
//
// An entry is ready to issue at cycle now exactly when it is woken and
// ReadyAt <= now. That is the polled condition it replaces — every live
// producer done with completion <= now — because promote runs every
// simulated cycle and marks an issued entry done one cycle before its
// completion, so an issued producer whose completion has arrived is always
// already done. See DESIGN.md §12 for the invariants.
package window

import (
	"math/bits"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
)

// State is an entry's position in the issue pipeline.
type State uint8

// Entry states, in the order an entry passes through them.
const (
	Waiting State = iota
	Issued
	Done
)

// Entry is one in-flight instruction. Operands rename to at most four
// producer sequences (QP plus three sources).
type Entry struct {
	// D is the stream's record, valid while the entry is live, and S its
	// entry in the run's operand table.
	D     *arch.ExecEvent
	S     *sim.StaticInst
	State State
	// Group is the owning model's grouping of the entry: ooo's scheduling
	// queue, cgooo's block id. The window never reads it.
	Group uint64
	// ReadyAt is the latest completion among the producers that have
	// issued. Once pending is zero the entry may issue at any cycle >=
	// ReadyAt.
	ReadyAt    uint64
	Completion uint64
	deps       [4]uint64
	ndeps      uint8
	pending    uint8 // producers that have not issued yet
	// consumers heads this entry's consumer list while it waits: an edge
	// slot<<2|k is dependence k of the consumer in ring slot slot, and
	// Window.next chains the edges. -1 ends the list.
	consumers int32
}

// noSeq marks an empty rename-table slot.
const noSeq = ^uint64(0)

// minSlots is the smallest ring: the bitmaps are whole 64-bit words.
const minSlots = 64

// Window is a power-of-two ring of entries indexed by seq&mask; the live
// entries are [Base, End). Every buffer is sized once by New, so a run
// allocates nothing per cycle.
type Window struct {
	ring  []Entry
	mask  uint64
	base  uint64
	count int
	next  []int32 // consumer-list links, indexed by edge
	// Bitmaps indexed by ring slot: woken entries (waiting, no pending
	// producer), issued-but-not-done entries, and stores not yet issued.
	woken, issued, stores []uint64
	lastProd              [isa.NumFlatRegs]uint64 // flat reg -> producing seq
}

// New returns an empty window whose head is seq start. Its ring holds at
// least capacity entries (and never fewer than 64); keeping Len within the
// configured capacity is the caller's job.
func New(capacity int, start uint64) *Window {
	slots := minSlots
	for slots < capacity {
		slots <<= 1
	}
	w := &Window{
		ring:   make([]Entry, slots),
		mask:   uint64(slots - 1),
		base:   start,
		next:   make([]int32, 4*slots),
		woken:  make([]uint64, slots/64),
		issued: make([]uint64, slots/64),
		stores: make([]uint64, slots/64),
	}
	for i := range w.lastProd {
		w.lastProd[i] = noSeq
	}
	return w
}

// Base is the seq of the oldest live entry (the ROB head).
func (w *Window) Base() uint64 { return w.base }

// Len is the number of live entries.
func (w *Window) Len() int { return w.count }

// End is the seq the next Insert takes.
func (w *Window) End() uint64 { return w.base + uint64(w.count) }

// At returns the entry of a live seq.
func (w *Window) At(seq uint64) *Entry { return &w.ring[seq&w.mask] }

func set(bm []uint64, slot uint64)   { bm[slot>>6] |= 1 << (slot & 63) }
func unset(bm []uint64, slot uint64) { bm[slot>>6] &^= 1 << (slot & 63) }

// Insert renames d, whose operand-table entry is s, into seq End and
// returns its entry, Waiting. The entry is woken at once if every producer
// it reads has already issued.
func (w *Window) Insert(d *arch.ExecEvent, s *sim.StaticInst) *Entry {
	seq := w.End()
	slot := seq & w.mask
	e := &w.ring[slot]
	*e = Entry{D: d, S: s, consumers: -1}
	for _, f := range s.Reads() {
		// noSeq passes the >= base filter (it is the max uint64), so an
		// empty slot must be rejected explicitly.
		if prod := w.lastProd[f]; prod != noSeq && prod >= w.base {
			e.deps[e.ndeps] = prod
			w.link(e, slot, e.ndeps)
			e.ndeps++
		}
	}
	for _, f := range s.Dsts() {
		w.lastProd[f] = seq
	}
	if e.pending == 0 {
		set(w.woken, slot)
	}
	if d.Flags&arch.EvStore != 0 {
		set(w.stores, slot)
	}
	w.count++
	return e
}

// link records dependence k of the entry e in ring slot slot: on the
// producer's consumer list while the producer waits, otherwise folded into
// e.ReadyAt.
func (w *Window) link(e *Entry, slot uint64, k uint8) {
	p := w.At(e.deps[k])
	if p.State != Waiting {
		if p.Completion > e.ReadyAt {
			e.ReadyAt = p.Completion
		}
		return
	}
	w.push(p, slot, int(k))
	e.pending++
}

// push puts dependence k of the consumer in ring slot slot on p's consumer
// list.
func (w *Window) push(p *Entry, slot uint64, k int) {
	edge := int32(slot<<2) | int32(k)
	w.next[edge] = p.consumers
	p.consumers = edge
}

// Retire removes the head entry. The caller has checked it is Done.
func (w *Window) Retire() {
	w.base++
	w.count--
}

// nextIn returns the first seq in [from, End) whose bit is set in bm.
func (w *Window) nextIn(bm []uint64, from uint64) (uint64, bool) {
	end := w.End()
	for from < end {
		pos := from & w.mask
		if word := bm[pos>>6] >> (pos & 63); word != 0 {
			seq := from + uint64(bits.TrailingZeros64(word))
			return seq, seq < end
		}
		from += 64 - pos&63
	}
	return 0, false
}

// NextWoken returns the oldest woken entry at or after from. Select walks
// it from Base; an entry is ready when its ReadyAt <= now.
func (w *Window) NextWoken(from uint64) (uint64, bool) { return w.nextIn(w.woken, from) }

// StoreWaitingBefore reports whether a store older than seq has not issued.
func (w *Window) StoreWaitingBefore(seq uint64) bool {
	s, ok := w.nextIn(w.stores, w.base)
	return ok && s < seq
}

// Issue issues the woken entry seq at cycle now: it computes the
// completion (a data access for memory operations), marks the entry Done
// when that completion is at most one cycle away and Issued otherwise, and
// wakes its consumers.
func (w *Window) Issue(seq, now uint64, hier *mem.Hierarchy) *Entry {
	slot := seq & w.mask
	e := &w.ring[slot]
	unset(w.woken, slot)
	d := e.D
	e.Completion = now + uint64(e.S.Lat)
	switch flags := d.Flags; {
	case flags&arch.EvLoad != 0:
		e.Completion = hier.AccessData(d.MemAddr, now, false, false)
	case flags&arch.EvStore != 0:
		hier.AccessData(d.MemAddr, now, true, false)
		unset(w.stores, slot)
	}
	if e.Completion <= now {
		e.Completion = now + 1
	}
	if e.Completion <= now+1 {
		e.State = Done
	} else {
		e.State = Issued
		set(w.issued, slot)
	}
	for edge := e.consumers; edge >= 0; edge = w.next[edge] {
		cs := uint64(edge >> 2)
		c := &w.ring[cs]
		if c.ReadyAt < e.Completion {
			c.ReadyAt = e.Completion
		}
		if c.pending--; c.pending == 0 {
			set(w.woken, cs)
		}
	}
	e.consumers = -1
	return e
}

// Promote marks Done every issued entry whose completion arrives next
// cycle and Notes completion-1 for the rest: that is the first cycle each
// can promote, and every woken entry's ReadyAt is an issued producer's
// completion, so these Notes bound every time deadline in the window. It
// returns the number promoted.
func (w *Window) Promote(now uint64, skip *sim.SkipState) int {
	promoted := 0
	for seq, ok := w.nextIn(w.issued, w.base); ok; seq, ok = w.nextIn(w.issued, seq+1) {
		e := w.At(seq)
		if e.Completion <= now+1 {
			e.State = Done
			unset(w.issued, seq&w.mask)
			promoted++
		} else {
			skip.Note(e.Completion - 1)
		}
	}
	return promoted
}

// Squash discards every entry past the first keep, then rebuilds the rename
// table and the consumer lists from the survivors. The rebuild is required:
// a refetched instruction returns with the same seq and ring slot, so an
// edge left from a squashed consumer would wake the wrong entry.
func (w *Window) Squash(keep int) {
	for seq := w.base + uint64(keep); seq < w.End(); seq++ {
		slot := seq & w.mask
		unset(w.woken, slot)
		unset(w.issued, slot)
		unset(w.stores, slot)
	}
	w.count = keep
	for i := range w.lastProd {
		w.lastProd[i] = noSeq
	}
	end := w.End()
	for seq := w.base; seq < end; seq++ {
		e := w.At(seq)
		e.consumers = -1
		for _, f := range e.S.Dsts() {
			w.lastProd[f] = seq
		}
	}
	// Survivors' pending counts and ReadyAt are unchanged: their producers
	// are older still, so none was squashed.
	for seq := w.base; seq < end; seq++ {
		e := w.At(seq)
		if e.pending == 0 {
			continue
		}
		for k, prod := range e.deps[:e.ndeps] {
			if prod >= w.base && w.At(prod).State == Waiting {
				w.push(w.At(prod), seq&w.mask, k)
			}
		}
	}
}

// StallCause attributes a cycle in which nothing issued (paper §5.2) to the
// oldest unfinished entry: a load when that entry is an executing load or
// waits on an unfinished load, other otherwise, and the front end when the
// window holds nothing unfinished.
func (w *Window) StallCause(now uint64) sim.StallKind {
	end := w.End()
	for seq := w.base; seq < end; seq++ {
		e := w.At(seq)
		if e.State == Done && e.Completion <= now {
			continue
		}
		if e.State != Waiting {
			// Oldest unfinished is executing.
			if e.D.Flags&arch.EvLoad != 0 {
				return sim.StallLoad
			}
			return sim.StallOther
		}
		// Waiting on producers: any unfinished load among them.
		for _, dep := range e.deps[:e.ndeps] {
			if dep < w.base {
				continue
			}
			if p := w.At(dep); !(p.State == Done && p.Completion <= now) && p.D.Flags&arch.EvLoad != 0 {
				return sim.StallLoad
			}
		}
		return sim.StallOther
	}
	return sim.StallFrontEnd
}
