package compile

import (
	"multipass/internal/isa"
	"multipass/internal/prog"
)

// Options controls the compilation pipeline.
type Options struct {
	// Schedule enables list scheduling of each block into issue groups.
	// When false, every instruction gets its own issue group (stop bit),
	// modeling completely unscheduled code.
	Schedule bool
	// InsertRestarts enables the critical-load analysis and RESTART
	// insertion of paper §3.3.
	InsertRestarts bool
	// CriticalFactor is how many times more variable-latency instructions
	// an SCC must feed than it consumes for its loads to be critical
	// ("much larger" in the paper).
	CriticalFactor float64
	// MinDownstream is the minimum number of downstream variable-latency
	// instructions for criticality.
	MinDownstream int
	// Caps is the issue capacity the scheduler packs against.
	Caps isa.FUCaps
	// Unroll is the unrolling factor applied to eligible single-block
	// self-loops before scheduling (0 or 1 disables). It stands in for the
	// cross-iteration static ILP OpenIMPACT's unrolling and modulo
	// scheduling provide (paper §5.1).
	Unroll int
}

// DefaultOptions returns the configuration used for the paper reproduction.
func DefaultOptions() Options {
	return Options{
		Schedule:       true,
		InsertRestarts: true,
		CriticalFactor: 2,
		MinDownstream:  2,
		Caps:           isa.DefaultFUCaps(),
		Unroll:         2,
	}
}

// Info reports what the compiler did.
type Info struct {
	SCCs          int // non-trivial data-flow SCCs
	LoadSCCs      int // of which contain loads
	CriticalLoads int
	Restarts      int // RESTART instructions inserted
	Unrolled      int // self-loops unrolled
	Groups        int // issue groups after scheduling
	Insts         int // total instructions emitted
	// Scratch lists registers whose final values are not preserved by the
	// compilation (loop-local temporaries renamed by unrolling, plus the
	// fresh registers they were renamed to). Everything else — memory and
	// every other register — is bit-identical to the uncompiled program's
	// outcome.
	Scratch []isa.Reg
}

// Compile runs the compilation pipeline on a copy of the unit and links the
// result: critical-load RESTART insertion (optional), per-block list
// scheduling (optional), layout, and target resolution.
func Compile(u *prog.Unit, opts Options) (*isa.Program, Info, error) {
	var info Info
	work := cloneUnit(u)

	info.Unrolled, info.Scratch = unrollLoops(work, opts.Unroll)

	if opts.InsertRestarts {
		g := buildDFG(work)
		ca := findCriticalLoads(g, opts.CriticalFactor, opts.MinDownstream)
		info.SCCs = ca.SCCs
		info.LoadSCCs = ca.LoadSCCs
		info.CriticalLoads = len(ca.CriticalLoads)
		info.Restarts = insertRestarts(work, ca.CriticalLoads)
	}

	for _, b := range work.Blocks {
		if opts.Schedule {
			insts, labels, groups := scheduleBlock(b.Insts, b.BranchLabels, &opts.Caps)
			b.Insts, b.BranchLabels = insts, labels
			info.Groups += groups
		} else {
			for i := range b.Insts {
				b.Insts[i].Stop = true
			}
			info.Groups += len(b.Insts)
		}
		info.Insts += len(b.Insts)
	}

	p, err := work.Link()
	if err != nil {
		return nil, info, err
	}
	return p, info, nil
}

// cloneUnit deep-copies a unit so compilation never mutates the caller's IR.
func cloneUnit(u *prog.Unit) *prog.Unit {
	c := prog.NewUnit()
	for _, b := range u.Blocks {
		nb := c.NewBlock(b.Label)
		nb.Insts = append([]isa.Inst(nil), b.Insts...)
		nb.BranchLabels = append([]string(nil), b.BranchLabels...)
	}
	return c
}
