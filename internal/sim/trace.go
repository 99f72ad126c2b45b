package sim

import (
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/isa"
)

// TraceLimit caps pre-decoded traces: a program whose dynamic stream is
// longer is not flattened, and its runs read the lazy Stream instead of
// holding a huge flat trace.
const TraceLimit = 1 << 22

// traceChunk is how many events BuildTrace decodes per superblock call.
const traceChunk = 4096

// Trace is a fully pre-decoded dynamic instruction stream: the oracle
// interpreter's output for one (program, image) pair, flattened into a
// contiguous slice, plus the final architectural state. A Trace is immutable
// after construction and safe for concurrent use, so a sweep can decode each
// workload once and share the result read-only across every model and
// hierarchy instead of re-interpreting the program per run.
type Trace struct {
	prog  *isa.Program
	insts []DynInst
	final *arch.State
}

// BuildTrace interprets the program over a clone of image to completion and
// returns the flattened stream. It fails if the program does not halt within
// limit dynamic instructions. The image itself is not mutated.
//
// A first superblock run without events learns the stream length, so a
// program over the limit fails after a bounded functional run and one that
// fits decodes into an exact-size slice on a second run.
func BuildTrace(p *isa.Program, image *arch.Memory, limit uint64) (*Trace, error) {
	sb := arch.NewSBProgram(p)
	probe := arch.NewState(image.Clone())
	if _, err := sb.Exec(probe, limit); err != nil {
		return nil, err
	}
	if !probe.Halted {
		return nil, fmt.Errorf("sim: trace exceeds %d dynamic instructions", limit)
	}
	n := probe.Retired
	tr := &Trace{prog: p, insts: make([]DynInst, n)}
	st := arch.NewState(image.Clone())
	evs := make([]arch.ExecEvent, min(n+1, traceChunk))
	for !st.Halted {
		seq := st.Retired
		_, k, err := sb.ExecTrace(st, n, evs)
		if err != nil {
			return nil, err
		}
		for i := range evs[:k] {
			decode(&tr.insts[seq+uint64(i)], p, &evs[i])
		}
	}
	tr.final = st
	return tr, nil
}

// decode expands one superblock event into a dynamic instruction. It is
// the only place a DynInst is built: pre-decoded traces, lazy streams and
// interval recordings share it.
func decode(d *DynInst, p *isa.Program, e *arch.ExecEvent) {
	in := &p.Insts[e.Idx]
	squashed := e.Flags&arch.EvSquash != 0
	*d = DynInst{
		Inst:     in,
		Index:    e.Idx,
		MemAddr:  e.MemAddr,
		Squashed: squashed,
		IsLoad:   e.Flags&arch.EvLoad != 0,
		IsStore:  e.Flags&arch.EvStore != 0,
		IsBranch: e.Flags&arch.EvBranch != 0,
		Taken:    e.Flags&arch.EvTaken != 0,
		Halt:     !squashed && in.Op.Kind() == isa.KindHalt,
	}
}

// Prog returns the program the trace was decoded from.
func (t *Trace) Prog() *isa.Program { return t.prog }

// Len returns the dynamic instruction count, including the halt.
func (t *Trace) Len() uint64 { return uint64(len(t.insts)) }

// FinalState returns the architectural state at the halt. Callers must treat
// it as read-only.
func (t *Trace) FinalState() *arch.State { return t.final }

// TraceUser is implemented by machines that can run from a pre-decoded
// trace. UseTrace supplies a trace the machine may (but need not) consult on
// subsequent Run calls; a trace built from a different program than the one
// passed to Run is ignored.
type TraceUser interface {
	UseTrace(*Trace)
}

// StreamFor returns the stream for one run: a zero-allocation view over tr
// when tr was decoded from p and fits within limit, otherwise a fresh lazy
// interpreter over a clone of image.
func StreamFor(p *isa.Program, image *arch.Memory, limit uint64, tr *Trace) *Stream {
	if tr != nil && tr.prog == p && tr.Len() <= limit {
		return &Stream{prog: p, tr: tr, ended: true}
	}
	return NewStream(p, image.Clone(), limit)
}
