package sim

import (
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/isa"
)

// DynInst is one instruction of the dynamic (correct-path) instruction
// stream, as produced by the oracle interpreter. Timing models use its
// resolved address, predicate and branch outcome; the value-simulating
// models (multipass, runahead) recompute results from their own state.
//
// A record carries no sequence number (every reader holds the sequence it
// passed to Stream.At) and no successor index (the next record's Index, or
// Inst.Target for a taken branch), which keeps it at 24 bytes.
type DynInst struct {
	Inst     *isa.Inst
	Index    int32 // static instruction index
	MemAddr  uint32
	Squashed bool // qualifying predicate was false
	IsLoad   bool
	IsStore  bool
	IsBranch bool
	Taken    bool
	Halt     bool
}

// Addr returns the simulated fetch address of the instruction.
func (d *DynInst) Addr() uint32 { return isa.InstAddr(int(d.Index)) }

// Stream serves the dynamic instruction stream by sequence number,
// retaining a sliding window of decoded instructions. Pipelines index it by
// sequence number; Release discards entries below a given sequence. A
// stream has one of three sources.
//
// A stream built over a pre-decoded Trace (StreamFor) serves the interface
// straight out of the trace's flat slice: At is a bounds check and an
// index, Release is a no-op, and nothing allocates.
//
// A lazy stream (NewStream) interprets the program along its architectural
// path on the superblock interpreter, in chunks of streamChunk
// instructions decoded with the same function as BuildTrace, so the
// interpreter may run up to one chunk ahead of the consumer. An
// interpreter fault is held until the consumer asks for the sequence that
// faulted, which is where a one-instruction-at-a-time interpreter would
// have reported it. It serves monolithic runs of programs too long to
// pre-decode.
//
// An interval's stream (StreamFrom) decodes the events the functional pass
// recorded into its checkpoint, a chunk at a time. A read past the end of
// a recording that does not reach the halt is an error.
type Stream struct {
	prog *isa.Program
	// win is a power-of-two ring holding sequences [base, head): the window
	// always ends at the last decoded record.
	win   []*DynInst
	base  uint64
	head  uint64
	ended bool
	// state is the interpreter's architectural state, or a recording's
	// final state (nil when the recording stops short of the halt).
	state *arch.State
	// free recycles DynInst records released from the window, making the
	// steady-state decode loop allocation-free. A pointer returned by At
	// is therefore valid only until its sequence is released.
	free []*DynInst

	// rec is the part of an interval's recording not decoded yet: its
	// first block from offset off on, and the blocks after it.
	rec [][]arch.ExecEvent
	off int

	// sb interprets a lazy stream over state, up to limit; nil otherwise.
	sb    *arch.SBProgram
	limit uint64
	err   error // interpreter fault past the window's end
	evs   []arch.ExecEvent

	// tr, when non-nil, backs the stream with a pre-decoded trace and the
	// fields above are unused.
	tr *Trace
}

// streamChunk is how many instructions a stream decodes at a time: enough
// to amortize a superblock call's register copies, few enough that the
// decoded records stay cache-resident.
const streamChunk = 256

// NewStream starts interpretation over mem (which the stream owns and
// mutates; clone the image if the caller needs it pristine). limit bounds
// the dynamic instruction count.
func NewStream(p *isa.Program, m *arch.Memory, limit uint64) *Stream {
	return &Stream{
		prog:  p,
		state: arch.NewState(m),
		sb:    arch.NewSBProgram(p),
		limit: limit,
		evs:   make([]arch.ExecEvent, streamChunk),
	}
}

// StreamFrom returns the stream of the interval that starts at checkpoint
// ck: it decodes ck's recording, so the first instruction it produces
// carries sequence ck.Seq.
func StreamFrom(p *isa.Program, ck *Checkpoint) *Stream {
	return &Stream{prog: p, base: ck.Seq, head: ck.Seq, rec: ck.Events, state: ck.Final}
}

// At returns the dynamic instruction at seq, decoding forward as needed.
// Requesting a sequence below the released window start panics (model bug).
// Requesting at or beyond the halt returns nil. The returned pointer stays
// valid until the sequence is released (consumers may hold it across cycles
// while the sequence remains in flight).
func (s *Stream) At(seq uint64) (*DynInst, error) {
	if s.tr != nil {
		if seq >= uint64(len(s.tr.insts)) {
			return nil, nil
		}
		return &s.tr.insts[seq], nil
	}
	if seq < s.base {
		panic(fmt.Sprintf("sim: stream access to released seq %d (base %d)", seq, s.base))
	}
	for seq >= s.head {
		if s.ended {
			return nil, nil
		}
		if err := s.fill(seq); err != nil {
			return nil, err
		}
	}
	return s.win[seq&uint64(len(s.win)-1)], nil
}

// fill decodes the next chunk, interpreted or recorded, into the window.
// It returns an error only when no instruction could be produced; seq is
// the request that needed the chunk.
func (s *Stream) fill(seq uint64) error {
	var evs []arch.ExecEvent
	if s.sb != nil {
		if s.err != nil {
			return s.err
		}
		if s.head >= s.limit {
			return fmt.Errorf("sim: dynamic instruction limit %d exceeded", s.limit)
		}
		_, n, err := s.sb.ExecTrace(s.state, s.limit, s.evs)
		s.err = err
		evs = s.evs[:n]
		s.ended = s.state.Halted
	} else {
		if len(s.rec) == 0 {
			return fmt.Errorf("sim: stream read at seq %d past the interval's recording, which ends before seq %d", seq, s.head)
		}
		blk := s.rec[0]
		evs = blk[s.off:min(len(blk), s.off+streamChunk)]
		if s.off += len(evs); s.off == len(blk) {
			s.rec, s.off = s.rec[1:], 0
		}
		s.ended = len(s.rec) == 0 && s.state != nil
	}
	if need := s.head - s.base + uint64(len(evs)); need > uint64(len(s.win)) {
		s.grow(need)
	}
	if k := len(s.free); k < len(evs) {
		blk := make([]DynInst, len(evs)-k)
		for i := range blk {
			s.free = append(s.free, &blk[i])
		}
	}
	mask := uint64(len(s.win) - 1)
	for i := range evs {
		d := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		decode(d, s.prog, &evs[i])
		s.win[s.head&mask] = d
		s.head++
	}
	return nil
}

// grow resizes the window ring to a power of two holding at least need
// entries, keeping each live sequence's record.
func (s *Stream) grow(need uint64) {
	size := max(uint64(len(s.win)), 2*streamChunk)
	for size < need {
		size *= 2
	}
	win := make([]*DynInst, size)
	for seq := s.base; seq < s.head; seq++ {
		win[seq&(size-1)] = s.win[seq&uint64(len(s.win)-1)]
	}
	s.win = win
}

// Release discards window entries with sequence below seq, recycling their
// records.
func (s *Stream) Release(seq uint64) {
	if s.tr != nil {
		return
	}
	seq = min(seq, s.head)
	mask := uint64(len(s.win) - 1)
	for ; s.base < seq; s.base++ {
		s.free = append(s.free, s.win[s.base&mask])
	}
}

// FinalState returns the architectural state at the halt; meaningful once
// the stream has ended, and nil for an interval's stream whose recording
// stops short of the halt. Timing models that do not simulate values
// report it as their final state.
func (s *Stream) FinalState() *arch.State {
	if s.tr != nil {
		return s.tr.final
	}
	return s.state
}
