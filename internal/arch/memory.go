// Package arch holds the architectural (functional) machine state shared by
// every timing model: the register files, a sparse byte-addressable memory,
// and a reference interpreter. All pipelines commit through the same
// semantics, which is what makes the cross-model equivalence tests
// meaningful: any timing model that retires a different architectural result
// than the reference interpreter has a correctness bug.
package arch

import (
	"encoding/binary"
	"sync/atomic"

	"multipass/internal/isa"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// A page number (20 bits) splits into a top-level index and a leaf
	// index of leafShift bits each.
	leafShift = 10
	leafSize  = 1 << leafShift
	leafMask  = leafSize - 1
)

// leaf maps leafSize consecutive page numbers (4 MiB of address space) to
// their pages. A leaf belongs to the generation that created it: only a
// memory whose current generation equals gen may write the leaf, and then
// only in place to the pages its own bitmap marks, which that generation
// allocated itself. Every other page in the leaf is shared with at least
// one other memory and is never written. Keeping the ownership bits here
// leaves each page a bare 4096-byte allocation.
type leaf struct {
	pages [leafSize]*[pageSize]byte
	gen   uint64
	own   [leafSize / 64]uint64
}

// generations hands out memory generations; 0 means none assigned yet.
var generations atomic.Uint64

// Memory is a sparse, little-endian, byte-addressable 32-bit memory.
// The zero value is an empty memory; unwritten bytes read as zero.
//
// Pages live in a two-level table and are copy-on-write: Clone copies only
// the top-level table, so source and clone share every existing page, and a
// memory copies a shared page (and its leaf) the first time it writes it.
// Clone ends both sides' ownership of existing pages by leaving the source
// without a generation; each side takes a fresh one at its next write, so a
// page reachable from two memories is never written. Clone writes nothing
// but that atomic generation, so any number of goroutines may clone one
// image that nobody writes, as shared program images are.
//
// A one-entry translation cache short-circuits the table walk: the cycle
// loops touch memory with strong page locality (pointer chases stay in a
// record, streams walk lines), so most accesses hit the last page used.
type Memory struct {
	gen atomic.Uint64
	// lastPG is page lastPN; lastGen is the generation it is private to, or
	// 0 if it was filled by a read. Every page copy goes through own, which
	// refills the entry, so a cached pointer is never stale.
	lastPN  uint32
	lastPG  *[pageSize]byte
	lastGen uint64
	top     [leafSize]*leaf
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return new(Memory) }

// Clone returns a memory with the same contents, in time proportional to
// the top-level table rather than the image: every page is shared until one
// side writes it.
func (m *Memory) Clone() *Memory {
	c := &Memory{top: m.top}
	m.gen.Store(0)
	return c
}

// page returns page pn for reading, or nil if it was never written.
func (m *Memory) page(pn uint32) *[pageSize]byte {
	if m.lastPG != nil && m.lastPN == pn {
		return m.lastPG
	}
	l := m.top[pn>>leafShift]
	if l == nil {
		return nil
	}
	pg := l.pages[pn&leafMask]
	if pg != nil {
		m.lastPN, m.lastPG, m.lastGen = pn, pg, 0
	}
	return pg
}

// writable returns page pn for writing: a page private to the current
// generation, which stays valid for writes until the next Clone.
func (m *Memory) writable(pn uint32) *[pageSize]byte {
	if g := m.lastGen; g != 0 && m.lastPN == pn && g == m.gen.Load() {
		return m.lastPG
	}
	return m.own(pn)
}

// own makes page pn private to the current generation, taking a fresh
// generation first if the memory has none, and copying the leaf and the
// page if either is shared (an absent page becomes a zero page).
func (m *Memory) own(pn uint32) *[pageSize]byte {
	gen := m.gen.Load()
	if gen == 0 {
		gen = generations.Add(1)
		m.gen.Store(gen)
	}
	t := pn >> leafShift
	l := m.top[t]
	if l == nil || l.gen != gen {
		nl := &leaf{gen: gen}
		if l != nil {
			nl.pages = l.pages
		}
		m.top[t], l = nl, nl
	}
	i := pn & leafMask
	pg := l.pages[i]
	if bit := uint64(1) << (i & 63); l.own[i>>6]&bit == 0 {
		np := new([pageSize]byte)
		if pg != nil {
			*np = *pg
		}
		pg = np
		l.pages[i] = pg
		l.own[i>>6] |= bit
	}
	m.lastPN, m.lastPG, m.lastGen = pn, pg, gen
	return pg
}

// eachPage calls fn for every allocated page in ascending page-number
// order.
func (m *Memory) eachPage(fn func(pn uint32, pg *[pageSize]byte)) {
	for t, l := range &m.top {
		if l == nil {
			continue
		}
		for i, pg := range &l.pages {
			if pg != nil {
				fn(uint32(t)<<leafShift|uint32(i), pg)
			}
		}
	}
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) byte {
	pg := m.page(addr >> pageShift)
	if pg == nil {
		return 0
	}
	return pg[addr&pageMask]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.writable(addr >> pageShift)[addr&pageMask] = v
}

// Load reads an n-byte little-endian value (n in 1..8). Accesses contained
// in one page decode straight out of the page; only page-straddling accesses
// fall back to the byte loop.
func (m *Memory) Load(addr uint32, n int) uint64 {
	if off := int(addr & pageMask); off+n <= pageSize {
		pg := m.page(addr >> pageShift)
		if pg == nil {
			return 0
		}
		switch n {
		case 4:
			return uint64(binary.LittleEndian.Uint32(pg[off:]))
		case 8:
			return binary.LittleEndian.Uint64(pg[off:])
		case 1:
			return uint64(pg[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(pg[off:]))
		}
		var v uint64
		for i := 0; i < n; i++ {
			v |= uint64(pg[off+i]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.LoadByte(addr+uint32(i))) << (8 * i)
	}
	return v
}

// Store writes an n-byte little-endian value (n in 1..8), with the same
// single-page fast path as Load.
func (m *Memory) Store(addr uint32, n int, v uint64) {
	if off := int(addr & pageMask); off+n <= pageSize {
		pg := m.writable(addr >> pageShift)
		switch n {
		case 4:
			binary.LittleEndian.PutUint32(pg[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(pg[off:], v)
			return
		case 1:
			pg[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(pg[off:], uint16(v))
			return
		}
		for i := 0; i < n; i++ {
			pg[off+i] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < n; i++ {
		m.StoreByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// LoadWord performs the load operation op at addr and returns the
// register-file image of the result (zero-extended for integer loads, raw
// bits for FP loads).
func (m *Memory) LoadWord(op isa.Op, addr uint32) isa.Word {
	return isa.Word(m.Load(addr, op.MemBytes()))
}

// StoreWord performs the store operation op at addr with register value v.
func (m *Memory) StoreWord(op isa.Op, addr uint32, v isa.Word) {
	m.Store(addr, op.MemBytes(), uint64(v))
}

// zeroPage stands in for an absent page when comparing memories.
var zeroPage [pageSize]byte

// pageAt returns page i of l, or the zero page if it is absent.
func pageAt(l *leaf, i int) *[pageSize]byte {
	if l == nil || l.pages[i] == nil {
		return &zeroPage
	}
	return l.pages[i]
}

// diffPages calls fn for every page number whose contents may differ
// between m and o, in ascending order, with absent pages as the zero page.
// Leaves and pages the two memories share are skipped without reading them.
func (m *Memory) diffPages(o *Memory, fn func(pn uint32, a, b *[pageSize]byte) bool) {
	for t := range m.top {
		la, lb := m.top[t], o.top[t]
		if la == lb {
			continue
		}
		for i := 0; i < leafSize; i++ {
			a, b := pageAt(la, i), pageAt(lb, i)
			if a != b && !fn(uint32(t)<<leafShift|uint32(i), a, b) {
				return
			}
		}
	}
}

// Equal reports whether two memories have identical contents.
func (m *Memory) Equal(o *Memory) bool {
	eq := true
	m.diffPages(o, func(_ uint32, a, b *[pageSize]byte) bool {
		eq = *a == *b
		return eq
	})
	return eq
}

// FootprintBytes returns the number of bytes in allocated pages, a coarse
// measure of a workload's data footprint.
func (m *Memory) FootprintBytes() int {
	n := 0
	m.eachPage(func(uint32, *[pageSize]byte) { n++ })
	return n * pageSize
}

// WordDiff is one differing aligned 32-bit word between two memories, for
// divergence diagnostics.
type WordDiff struct {
	Addr uint32
	A, B uint32
}

// DiffWords returns up to limit aligned words that differ between m and o, in
// ascending address order. Unallocated pages compare as zero.
func (m *Memory) DiffWords(o *Memory, limit int) []WordDiff {
	var out []WordDiff
	m.diffPages(o, func(pn uint32, a, b *[pageSize]byte) bool {
		for off := 0; off < pageSize; off += 4 {
			wa := binary.LittleEndian.Uint32(a[off:])
			wb := binary.LittleEndian.Uint32(b[off:])
			if wa != wb {
				out = append(out, WordDiff{Addr: pn<<pageShift | uint32(off), A: wa, B: wb})
				if len(out) >= limit {
					return false
				}
			}
		}
		return true
	})
	return out
}
