package sim

import (
	"multipass/internal/mem"
)

// FetchUnit models the front end: it fetches the dynamic instruction stream
// at FetchWidth per cycle through the L1 instruction cache and records when
// each dynamic instruction becomes available to the issue stage. Correctly
// predicted branches redirect fetch without a bubble (decoupling buffer);
// mispredictions are modeled by Flush, which restarts fetch at a later
// cycle.
//
// The unit tracks availability with a sliding window aligned to the
// pipeline's consumption, mirroring Stream: a power-of-two ring holding
// sequences [base, nextSeq), so releasing is O(1).
type FetchUnit struct {
	stream *Stream
	ops    Operands
	hier   *mem.Hierarchy
	width  int

	cycle    uint64 // front-end clock: when the next fetch group completes
	nextSeq  uint64 // next sequence to fetch
	lineAddr uint32 // current I-cache line address (line-aligned)
	haveLine bool
	lineMask uint32

	base  uint64   // oldest sequence still held
	ready []uint64 // ring: seq's ready cycle at ready[seq&(len-1)]

	limit uint64 // fetch-ahead bound set by the consumer (buffer capacity)
}

// NewFetchUnit builds a front end over the stream and hierarchy; ops is the
// operand table of the stream's program, which holds each fetch address.
func NewFetchUnit(s *Stream, ops Operands, h *mem.Hierarchy, width int) *FetchUnit {
	return &FetchUnit{
		stream:   s,
		ops:      ops,
		hier:     h,
		width:    width,
		lineMask: ^uint32(h.Config().L1I.LineBytes - 1),
		limit:    ^uint64(0),
	}
}

// StartAt positions the front end at sequence seq for an interval run whose
// stream starts mid-trace. It must be called before any fetch activity.
func (f *FetchUnit) StartAt(seq uint64) {
	if f.base != 0 || f.nextSeq != 0 {
		panic("sim: StartAt after fetch began")
	}
	f.base, f.nextSeq = seq, seq
}

// SetLimit bounds fetch-ahead to sequences below seq, modeling the
// instruction buffer's capacity backpressure. The limit may move in either
// direction as the consumer advances or flushes.
func (f *FetchUnit) SetLimit(seq uint64) { f.limit = seq }

// ReadyAt returns the cycle at which dynamic instruction seq is available to
// issue, fetching forward as needed. Returns (0, false, nil) when seq is past
// the end of the program. Querying at or beyond the fetch limit is a caller
// bug and panics.
func (f *FetchUnit) ReadyAt(seq uint64) (uint64, bool, error) {
	if seq < f.base {
		panic("sim: fetch query below released window")
	}
	if seq >= f.limit {
		panic("sim: fetch query beyond buffer limit")
	}
	for seq >= f.nextSeq {
		ok, err := f.fetchGroup()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			return 0, false, nil
		}
	}
	return f.ready[seq&uint64(len(f.ready)-1)], true, nil
}

// fetchGroup fetches up to width instructions in one front-end cycle.
func (f *FetchUnit) fetchGroup() (bool, error) {
	fetched := 0
	groupCycle := f.cycle
	for fetched < f.width && f.nextSeq < f.limit {
		d, err := f.stream.At(f.nextSeq)
		if err != nil {
			return false, err
		}
		if d == nil {
			break
		}
		line := f.ops[d.Index].Addr & f.lineMask
		if !f.haveLine || line != f.lineAddr {
			// New line: access the I-cache. A miss stalls the whole group.
			readyAt := f.hier.AccessInst(line, groupCycle)
			if readyAt > groupCycle+1 {
				// Charge the I-miss to the front-end clock: this group
				// completes when the line arrives.
				groupCycle = readyAt - 1
			}
			f.lineAddr = line
			f.haveLine = true
		}
		if f.nextSeq-f.base == uint64(len(f.ready)) {
			f.grow()
		}
		f.ready[f.nextSeq&uint64(len(f.ready)-1)] = groupCycle + 1
		f.nextSeq++
		fetched++
		if d.Halt {
			break
		}
		// A taken branch ends the fetch group (redirect consumes the rest
		// of the group's slots), without a bubble when predicted.
		if d.IsBranch && d.Taken {
			f.haveLine = false
			break
		}
	}
	f.cycle = groupCycle + 1
	return fetched > 0, nil
}

// Flush discards fetched-but-unissued instructions from restartSeq onward
// and resumes fetch there no earlier than resumeCycle (misprediction
// recovery or pipeline flush).
func (f *FetchUnit) Flush(restartSeq, resumeCycle uint64) {
	if restartSeq < f.base {
		panic("sim: flush below released window")
	}
	if restartSeq < f.nextSeq {
		f.nextSeq = restartSeq
	}
	if resumeCycle > f.cycle {
		f.cycle = resumeCycle
	}
	f.haveLine = false
}

// Release discards availability records below seq and lets the stream free
// its window.
func (f *FetchUnit) Release(seq uint64) {
	f.base = max(f.base, min(seq, f.nextSeq))
	f.stream.Release(seq)
}

// grow doubles the ready ring, keeping each held sequence's slot.
func (f *FetchUnit) grow() {
	ready := make([]uint64, max(2*len(f.ready), 64))
	for seq := f.base; seq < f.nextSeq; seq++ {
		ready[seq&uint64(len(ready)-1)] = f.ready[seq&uint64(len(f.ready)-1)]
	}
	f.ready = ready
}
