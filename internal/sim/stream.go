package sim

import (
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/isa"
)

// Stream serves the dynamic (correct-path) instruction stream by sequence
// number. Its record is the superblock interpreter's arch.ExecEvent: a
// consumer takes the instruction as Prog.Insts[e.Idx] (or its operand-table
// entry Ops[e.Idx]), the address of a load or store that executed from
// MemAddr, and the rest from Flags, which it loads once per record. A
// branch's predicate is EvTaken; any other instruction's is EvSquash clear.
// A halt is a halt instruction with EvSquash clear. Pipelines index the
// stream by sequence number; Release discards entries below a given
// sequence. A stream has one of two kinds of storage.
//
// A pre-decoded Trace (StreamFor) or an interval's recording (StreamFrom)
// is read in place: At is a subtraction, a bounds check and an index,
// Release does nothing, and nothing allocates. That storage is never
// rewritten, so a record stays valid for the life of the stream. A read
// past the end of a recording that does not reach the halt is an error.
//
// A lazy stream (NewStream) interprets the program along its architectural
// path on the superblock interpreter, streamChunk instructions at a time,
// into a power-of-two ring of events, so the interpreter may run up to one
// chunk ahead of the consumer. A record stays valid until its sequence is
// released: the ring only writes a slot whose sequence is released, and
// growing it copies the live records into a new array and leaves the old
// one as it was. An interpreter fault is held until the consumer asks for
// the sequence that faulted, which is where a one-instruction-at-a-time
// interpreter would have reported it. It serves monolithic runs of
// programs too long to pre-decode.
type Stream struct {
	// rec is a trace or a recording read in place: sequence first+i is
	// rec[i]. It is empty for a lazy stream.
	rec   []arch.ExecEvent
	first uint64
	// state is the interpreter's architectural state, or the final state of
	// a trace or a recording (nil when the recording stops short of the
	// halt).
	state *arch.State

	// A lazy stream's ring holds sequences [base, head) at
	// win[seq&(len(win)-1)]; it always ends at the last interpreted record.
	win   []arch.ExecEvent
	base  uint64
	head  uint64
	ended bool
	// sb interprets over state, up to limit; err is an interpreter fault
	// past the ring's end, and evs the chunk the interpreter writes.
	sb    *arch.SBProgram
	limit uint64
	err   error
	evs   []arch.ExecEvent
}

// streamChunk is how many instructions a lazy stream interprets at a time:
// enough to amortize a superblock call's register copies, few enough that
// the ring stays cache-resident.
const streamChunk = 256

// NewStream starts interpretation over mem (which the stream owns and
// mutates; clone the image if the caller needs it pristine). limit bounds
// the dynamic instruction count.
func NewStream(p *isa.Program, m *arch.Memory, limit uint64) *Stream {
	return &Stream{
		state: arch.NewState(m),
		sb:    arch.NewSBProgram(p),
		limit: limit,
		evs:   make([]arch.ExecEvent, streamChunk),
	}
}

// StreamFrom returns the stream of the interval that starts at checkpoint
// ck: it reads ck's recording in place, so its first record is sequence
// ck.Seq.
func StreamFrom(ck *Checkpoint) *Stream {
	return &Stream{rec: ck.Events, first: ck.Seq, state: ck.Final}
}

// At returns the dynamic instruction at seq, interpreting forward as
// needed. Requesting at or beyond the halt returns nil. On a lazy stream,
// requesting a sequence below the released window start panics (model
// bug), and the returned record stays valid until its sequence is released
// (consumers may hold it across cycles while the sequence remains in
// flight).
func (s *Stream) At(seq uint64) (*arch.ExecEvent, error) {
	if i := seq - s.first; i < uint64(len(s.rec)) {
		return &s.rec[i], nil
	}
	return s.beyond(seq)
}

// beyond is At for a sequence that is not one of the in-place records.
func (s *Stream) beyond(seq uint64) (*arch.ExecEvent, error) {
	if s.sb == nil {
		end := s.first + uint64(len(s.rec))
		switch {
		case seq < s.first:
			panic(fmt.Sprintf("sim: stream access to seq %d before its recording starts at %d", seq, s.first))
		case s.state == nil:
			return nil, fmt.Errorf("sim: stream read at seq %d past the interval's recording, which ends before seq %d", seq, end)
		}
		return nil, nil
	}
	if seq < s.base {
		panic(fmt.Sprintf("sim: stream access to released seq %d (base %d)", seq, s.base))
	}
	for seq >= s.head {
		if s.ended {
			return nil, nil
		}
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
	return &s.win[seq&uint64(len(s.win)-1)], nil
}

// fill interprets the next chunk into the ring. It returns an error only
// when no instruction could be produced.
func (s *Stream) fill() error {
	if s.err != nil {
		return s.err
	}
	if s.head >= s.limit {
		return fmt.Errorf("sim: dynamic instruction limit %d exceeded", s.limit)
	}
	_, n, err := s.sb.ExecTrace(s.state, s.limit, s.evs)
	s.err = err
	s.ended = s.state.Halted
	if need := s.head - s.base + uint64(n); need > uint64(len(s.win)) {
		s.grow(need)
	}
	mask := uint64(len(s.win) - 1)
	for _, e := range s.evs[:n] {
		s.win[s.head&mask] = e
		s.head++
	}
	return nil
}

// grow moves the ring to a new power-of-two array holding at least need
// entries, copying each live record and leaving the old array untouched
// for the consumers that still hold its records.
func (s *Stream) grow(need uint64) {
	size := max(uint64(len(s.win)), 2*streamChunk)
	for size < need {
		size *= 2
	}
	win := make([]arch.ExecEvent, size)
	for seq := s.base; seq < s.head; seq++ {
		win[seq&(size-1)] = s.win[seq&uint64(len(s.win)-1)]
	}
	s.win = win
}

// Release discards a lazy stream's records with sequence below seq, so
// their slots may be written again.
func (s *Stream) Release(seq uint64) {
	s.base = max(s.base, min(seq, s.head))
}

// FinalState returns the architectural state at the halt; meaningful once
// the stream has ended, and nil for an interval's stream whose recording
// stops short of the halt. Timing models that do not simulate values
// report it as their final state.
func (s *Stream) FinalState() *arch.State { return s.state }
