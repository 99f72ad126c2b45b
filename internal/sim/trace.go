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

// Trace is a fully pre-decoded dynamic instruction stream: the superblock
// interpreter's events for one (program, image) pair in one contiguous
// slice, plus the final architectural state. A Trace is immutable after
// construction and safe for concurrent use, so a sweep can decode each
// workload once and share the result read-only across every model and
// hierarchy instead of re-interpreting the program per run.
type Trace struct {
	prog   *isa.Program
	events []arch.ExecEvent
	final  *arch.State
}

// BuildTrace interprets the program over a clone of image to completion and
// returns its events. It fails if the program does not halt within limit
// dynamic instructions. The image itself is not mutated.
//
// A first superblock run without events learns the stream length, so a
// program over the limit fails after a bounded functional run that records
// nothing, and one that fits executes straight into an exact-size slice on
// a second run.
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
	// ExecTrace stops while fewer than two slots remain (a fused pair needs
	// two), so the slice has one slot of capacity past its length, never
	// written: the run stops at n.
	events := make([]arch.ExecEvent, n, n+1)
	st := arch.NewState(image.Clone())
	for !st.Halted {
		if _, _, err := sb.ExecTrace(st, n, events[st.Retired:n+1]); err != nil {
			return nil, err
		}
	}
	return &Trace{prog: p, events: events, final: st}, nil
}

// Len returns the dynamic instruction count, including the halt.
func (t *Trace) Len() uint64 { return uint64(len(t.events)) }

// TraceUser is implemented by machines that can run from a pre-decoded
// trace. UseTrace supplies a trace the machine may (but need not) consult on
// subsequent Run calls; a trace built from a different program than the one
// passed to Run is ignored.
type TraceUser interface {
	UseTrace(*Trace)
}

// StreamFor returns the stream for one run: tr read in place when tr was
// built from p and fits within limit, otherwise a fresh lazy interpreter
// over a clone of image.
func StreamFor(p *isa.Program, image *arch.Memory, limit uint64, tr *Trace) *Stream {
	if tr != nil && tr.prog == p && tr.Len() <= limit {
		return &Stream{rec: tr.events, state: tr.final}
	}
	return NewStream(p, image.Clone(), limit)
}
