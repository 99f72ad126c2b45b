package core

import "multipass/internal/isa"

// asc is the advance store cache (§3.6): a small, low-associativity cache
// that forwards advance-store data to later advance loads within one pass.
// It is cleared at the start of every pass. Replacement in a set makes
// subsequent advance-load misses in that set data-speculative.
type ascEntry struct {
	valid bool
	addr  uint32 // exact byte address of the store
	size  int
	data  isa.Word
	// dataInvalid marks a store whose address was known but whose data
	// operand was invalid: loads to the location must be suppressed.
	dataInvalid bool
	use         uint64
}

type asc struct {
	ways     int
	sets     int
	setMask  uint32
	entries  []ascEntry // sets*ways, row-major
	replaced []bool     // per set, since pass start
	useClock uint64

	hits         uint64
	replacements uint64
}

func newASC(entries, ways int) *asc {
	sets := entries / ways
	return &asc{
		ways:     ways,
		sets:     sets,
		setMask:  uint32(sets - 1),
		entries:  make([]ascEntry, entries),
		replaced: make([]bool, sets),
	}
}

func (a *asc) setIndex(addr uint32) uint32 {
	return (addr >> 3) & a.setMask
}

func (a *asc) set(addr uint32) []ascEntry {
	s := a.setIndex(addr)
	return a.entries[int(s)*a.ways : (int(s)+1)*a.ways]
}

// clear empties the ASC and its replacement flags (start of a pass).
func (a *asc) clear() {
	clear(a.entries)
	clear(a.replaced)
}

// overlaps reports whether [addrA, addrA+sizeA) intersects [addrB, addrB+sizeB).
func overlaps(addrA uint32, sizeA int, addrB uint32, sizeB int) bool {
	return addrA < addrB+uint32(sizeB) && addrB < addrA+uint32(sizeA)
}

// ascLookupResult describes what an advance load found in the ASC.
type ascLookupResult int

const (
	ascMiss     ascLookupResult = iota
	ascHit                      // exact match: data forwarded
	ascConflict                 // overlapping but not exact, or invalid data
)

// lookup searches for a forwardable store. On ascHit the data is returned.
// A store with invalid data or a partial overlap yields ascConflict: the
// load's result is invalid (§3.6: "if a store has an invalid data operand,
// the result of a load to the same location is also invalid").
func (a *asc) lookup(addr uint32, size int) (ascLookupResult, isa.Word) {
	a.useClock++
	set := a.set(addr)
	for i := range set {
		e := &set[i]
		if !e.valid || !overlaps(addr, size, e.addr, e.size) {
			continue
		}
		if e.dataInvalid || e.addr != addr || e.size != size {
			return ascConflict, 0
		}
		e.use = a.useClock
		a.hits++
		return ascHit, e.data
	}
	return ascMiss, 0
}

// insert records an advance store; dataInvalid poisons the location. A full
// set evicts LRU and marks the set replaced.
func (a *asc) insert(addr uint32, size int, data isa.Word, dataInvalid bool) {
	a.useClock++
	set := a.set(addr)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].addr == addr && set[i].size == size {
			victim = i
			break
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].use < set[victim].use {
			victim = i
		}
	}
	if set[victim].valid && (set[victim].addr != addr || set[victim].size != size) {
		a.replaced[a.setIndex(addr)] = true
		a.replacements++
	}
	set[victim] = ascEntry{valid: true, addr: addr, size: size, data: data, dataInvalid: dataInvalid, use: a.useClock}
}

// setReplaced reports whether addr's set has suffered a replacement this
// pass (making load misses there data-speculative).
func (a *asc) setReplaced(addr uint32) bool {
	return a.replaced[a.setIndex(addr)]
}
