package sim

import (
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/isa"
)

// DynInst is one instruction of the dynamic (correct-path) instruction
// stream, as produced by the oracle interpreter. Timing models use its
// resolved address and branch outcome; the value-simulating models
// (multipass, runahead, in-order) recompute results from their own state.
type DynInst struct {
	Seq      uint64
	Index    int // static instruction index
	Inst     *isa.Inst
	Squashed bool // qualifying predicate was false
	IsLoad   bool
	IsStore  bool
	MemAddr  uint32
	IsBranch bool
	Taken    bool
	NextIdx  int
	Halt     bool
}

// Addr returns the simulated fetch address of the instruction.
func (d *DynInst) Addr() uint32 { return isa.InstAddr(d.Index) }

// Stream lazily interprets the program along its architectural path,
// retaining a sliding window of dynamic instructions. Pipelines index it by
// sequence number; Release discards entries below a given sequence.
//
// Interpretation runs on the superblock interpreter in chunks of
// streamChunk instructions, decoded with the same function as BuildTrace, so
// the interpreter may run up to one chunk ahead of the consumer. An
// interpreter fault is held until the consumer asks for the sequence that
// faulted, which is where a one-instruction-at-a-time interpreter would
// have reported it.
//
// A stream built over a pre-decoded Trace (StreamFor) serves the same
// interface straight out of the trace's flat slice: At is a bounds check and
// an index, Release is a no-op, and nothing allocates.
type Stream struct {
	prog  *isa.Program
	sb    *arch.SBProgram
	state *arch.State
	// win is a power-of-two ring holding sequences [base, state.Retired):
	// the window always ends where the interpreter stopped.
	win   []*DynInst
	base  uint64
	ended bool
	limit uint64
	err   error // interpreter fault past the window's end
	evs   []arch.ExecEvent
	// free recycles DynInst records released from the window, making the
	// steady-state interpret loop allocation-free. A pointer returned by At
	// is therefore valid only until its sequence is released.
	free []*DynInst
	// tr, when non-nil, backs the stream with a pre-decoded trace and the
	// lazy fields above are unused.
	tr *Trace
}

// streamChunk is how many instructions a lazy stream interprets per
// superblock call: enough to amortize the call's register copies, few
// enough that the decoded records stay cache-resident.
const streamChunk = 256

// NewStream starts interpretation over mem (which the stream owns and
// mutates; clone the image if the caller needs it pristine). limit bounds
// the dynamic instruction count.
func NewStream(p *isa.Program, m *arch.Memory, limit uint64) *Stream {
	return newLazyStream(p, arch.NewState(m), limit)
}

// StreamFrom returns the stream for an interval run starting at checkpoint
// ck. A pre-decoded trace (which is random access and shared read-only)
// serves any starting point directly; otherwise interpretation starts from a
// clone of the checkpoint's architectural state, positioned so that the
// first instruction produced carries sequence ck.Seq. limit bounds the
// absolute dynamic instruction count, as in NewStream.
func StreamFrom(p *isa.Program, ck *Checkpoint, limit uint64, tr *Trace) *Stream {
	if tr != nil && tr.prog == p && uint64(len(tr.insts)) <= limit {
		return &Stream{prog: p, tr: tr, ended: true}
	}
	return newLazyStream(p, &arch.State{RF: ck.RF.Clone(), Mem: ck.Mem.Clone(), PC: ck.PC, Retired: ck.Seq}, limit)
}

func newLazyStream(p *isa.Program, st *arch.State, limit uint64) *Stream {
	return &Stream{
		prog:  p,
		sb:    arch.NewSBProgram(p),
		state: st,
		base:  st.Retired,
		limit: limit,
		evs:   make([]arch.ExecEvent, streamChunk),
	}
}

// At returns the dynamic instruction at seq, interpreting forward as needed.
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
	for seq >= s.state.Retired {
		if s.ended {
			return nil, nil
		}
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
	return s.win[seq&uint64(len(s.win)-1)], nil
}

// fill interprets the next chunk and appends its instructions to the
// window. It returns an error only when no instruction could be produced.
func (s *Stream) fill() error {
	if s.err != nil {
		return s.err
	}
	if s.state.Retired >= s.limit {
		return fmt.Errorf("sim: dynamic instruction limit %d exceeded", s.limit)
	}
	head := s.state.Retired
	if need := head - s.base + uint64(len(s.evs)); need > uint64(len(s.win)) {
		s.grow(need)
	}
	_, n, err := s.sb.ExecTrace(s.state, s.limit, s.evs)
	s.err = err
	if k := len(s.free); k < n {
		blk := make([]DynInst, n-k)
		for i := range blk {
			s.free = append(s.free, &blk[i])
		}
	}
	mask := uint64(len(s.win) - 1)
	for i := range s.evs[:n] {
		d := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		decode(d, s.prog, &s.evs[i], head)
		s.win[head&mask] = d
		head++
	}
	s.ended = s.state.Halted
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
	for seq := s.base; seq < s.state.Retired; seq++ {
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
	seq = min(seq, s.state.Retired)
	mask := uint64(len(s.win) - 1)
	for ; s.base < seq; s.base++ {
		s.free = append(s.free, s.win[s.base&mask])
	}
}

// Ended reports whether the halt instruction has been produced.
func (s *Stream) Ended() bool { return s.ended }

// EndSeq returns the sequence of the halt instruction; valid once a request
// has reached it.
func (s *Stream) EndSeq() uint64 {
	if s.tr != nil {
		return uint64(len(s.tr.insts)) - 1
	}
	return s.state.Retired - 1
}

// Retired returns how many instructions the oracle has interpreted.
func (s *Stream) Retired() uint64 {
	if s.tr != nil {
		return uint64(len(s.tr.insts))
	}
	return s.state.Retired
}

// FinalState exposes the oracle's architectural state; meaningful once the
// stream has ended. Timing models that do not simulate values (the
// out-of-order models) report this as their final state.
func (s *Stream) FinalState() *arch.State {
	if s.tr != nil {
		return s.tr.final
	}
	return s.state
}
