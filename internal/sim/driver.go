package sim

import (
	"context"
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/mem"
)

// Cycle is what a pipeline reports about the cycle it just simulated.
type Cycle struct {
	// Cat is the stall category (Figure 6) the cycle is charged to.
	Cat StallKind
	// Idle reports that the cycle mutated no model state (the first
	// SkipState obligation), so its repeats may be fast-forwarded.
	Idle bool
	// Progress reports work that holds off the no-progress watchdog. Each
	// model keeps its own definition: an issue, a commit, a pre-execution.
	Progress bool
	// Done reports that the run ended this cycle (the halt issued or
	// retired).
	Done bool
}

// Pipeline is one timing model's per-cycle logic over a Run. The driver owns
// everything around the step: context polling, the warm-up mark, idle-cycle
// skipping, fetch release, the watchdog and the end-of-run statistics.
type Pipeline interface {
	// Head is the next sequence to issue or retire. The driver takes the
	// warm-up mark, ends the interval and releases the fetch window by it.
	Head() uint64
	// Step simulates cycle Run.Now. It Notes every future deadline it
	// compared against the clock and marks dirty every mutation its Idle
	// report does not account for (see SkipState).
	Step() (Cycle, error)
	// Credit adds n skipped repeats of the last Idle cycle to the model's
	// own counters; the driver has already credited Cycles and Cat.
	Credit(n uint64)
	// shared is promoted from the Run the pipeline embeds by value, which is
	// the only way to implement it. The driver and the step then share one
	// Run, and the step reads it with no pointer hop on its hot path.
	shared() *Run
}

// Run is the state one simulation shares between the driver and the
// pipeline: the devices, the statistics, the clock and the interval window.
// Model builds it per run, from the program image or from a checkpoint, and
// hands it to the pipeline constructor, which embeds it.
type Run struct {
	Prog *isa.Program
	// Ops is Prog's operand table, indexed by DynInst.Index.
	Ops    Operands
	Hier   *mem.Hierarchy
	Pred   *bpred.Gshare
	Stream *Stream
	Fetch  *FetchUnit
	// Own is the architectural state a value-simulating pipeline executes
	// on; nil for the models that report the oracle's final state.
	Own *arch.State
	// Stats is the run's statistics. The driver charges Cycles and Cat; the
	// pipeline counts everything else.
	Stats Stats
	// Now is the cycle being simulated.
	Now uint64
	// Skip collects the deadlines and mutations of the current cycle.
	Skip SkipState
	// Start, Measure and End bound the interval (Checkpoint.Bounds).
	Start, Measure, End uint64

	skipOn bool
	wm     warmMark
}

// Cut is the sequence the issue or retire stage must not reach this cycle:
// Measure until the warm-up baseline is taken, End after. No group or retire
// burst spans either boundary, and the check is unreachable on a cycle that
// has done nothing yet, so it adds no idle cycles.
func (r *Run) Cut() uint64 { return r.wm.cut(r.Measure, r.End) }

func (r *Run) shared() *Run { return r }

// Model is the machine shell every timing model embeds. It implements
// Machine, IntervalRunner and TraceUser once: a model supplies its name, its
// configuration, how far past its head it reads the stream, and a
// constructor for the per-run pipeline. A Model holds
// only read-only state, so concurrent runs on one value are safe.
type Model struct {
	name string
	cfg  Config
	// values: the pipeline executes on its own architectural state
	// (Run.Own) instead of reporting the oracle's.
	values bool
	// lookahead is CheckpointSpec.Lookahead.
	lookahead uint64
	pipeline  func(Run) Pipeline
	tr        *Trace
}

// NewModel returns the shell of a model. With values set, each run clones
// the image or checkpoint state into Run.Own for the pipeline to execute on,
// and the result reports that state; otherwise it reports the oracle's final
// state. lookahead bounds how far past its head the pipeline reads the
// stream (CheckpointSpec.Lookahead). NewModel rejects an invalid hierarchy;
// the caller has validated the rest of cfg.
func NewModel(name string, cfg Config, values bool, lookahead int, pipeline func(Run) Pipeline) (Model, error) {
	if err := cfg.Hier.Validate(); err != nil {
		return Model{}, err
	}
	return Model{name: name, cfg: cfg, values: values, lookahead: uint64(lookahead), pipeline: pipeline}, nil
}

// Name implements Machine.
func (m *Model) Name() string { return m.name }

// UseTrace implements TraceUser: subsequent monolithic runs of the traced
// program read the pre-decoded stream instead of re-interpreting it.
// Intervals read their checkpoint's recording either way.
func (m *Model) UseTrace(tr *Trace) { m.tr = tr }

// CheckpointSpec implements IntervalRunner.
func (m *Model) CheckpointSpec() CheckpointSpec {
	return CheckpointSpec{
		Hier:             m.cfg.Hier,
		PredictorEntries: m.cfg.PredictorEntries,
		MaxInsts:         m.cfg.MaxInsts,
		Lookahead:        m.lookahead,
		Values:           m.values,
	}
}

// Run implements Machine.
func (m *Model) Run(ctx context.Context, p *isa.Program, image *arch.Memory) (*Result, error) {
	return m.RunInterval(ctx, p, image, nil)
}

// RunInterval implements IntervalRunner. With a nil checkpoint the window
// degenerates to [0, 2⁶⁴−1) measured from zero, which is a monolithic run.
func (m *Model) RunInterval(ctx context.Context, p *isa.Program, image *arch.Memory, ck *Checkpoint) (*Result, error) {
	r, err := m.newRun(p, image, ck)
	if err != nil {
		return nil, err
	}
	return drive(ctx, m.name, m.pipeline(r))
}

// newRun builds a run's operand table and devices, cold or restored from
// ck's warm state, its stream and front end positioned at the interval
// start, and for a value-simulating model its own copy of the architectural
// state. An interval's stream replays the checkpoint's recording.
func (m *Model) newRun(p *isa.Program, image *arch.Memory, ck *Checkpoint) (Run, error) {
	cfg := &m.cfg
	r := Run{
		Prog:   p,
		Ops:    NewOperands(p),
		Hier:   mem.MustNewHierarchy(cfg.Hier),
		Pred:   bpred.New(cfg.PredictorEntries),
		skipOn: !cfg.DisableSkip,
	}
	r.Start, r.Measure, r.End = ck.Bounds()
	if ck == nil {
		r.Stream = StreamFor(p, image, cfg.MaxInsts, m.tr)
		if m.values {
			r.Own = arch.NewState(image.Clone())
		}
	} else {
		if err := r.Hier.RestoreWarm(ck.Caches); err != nil {
			return Run{}, err
		}
		if err := r.Pred.RestoreWarm(ck.Pred); err != nil {
			return Run{}, err
		}
		r.Stream = StreamFrom(p, ck)
		if m.values {
			if ck.RF == nil || ck.Mem == nil {
				return Run{}, fmt.Errorf("%s: checkpoint at seq %d carries no architectural state", m.name, ck.Seq)
			}
			r.Own = &arch.State{RF: ck.RF.Clone(), Mem: ck.Mem.Clone(), PC: ck.PC, Retired: ck.Seq}
		}
	}
	r.Fetch = NewFetchUnit(r.Stream, r.Ops, r.Hier, cfg.FetchWidth)
	r.Fetch.StartAt(r.Start)
	return r, nil
}

// progressWindow bounds how many cycles a run may go without progress before
// it is declared wedged: a model bug, not a program property.
const progressWindow = 1 << 20

// drive is the cycle loop of every model. Each cycle it polls ctx, takes the
// warm-up mark, stops once the head reaches the interval end, and steps the
// pipeline, charging the cycle to the category the step reports. After an
// Idle cycle it jumps the clock to the earliest noted deadline and credits
// the skipped repeats in bulk to the same category and, through Credit, to
// the model's counters. A run ends at the halt (Done) or at the interval end.
func drive(ctx context.Context, name string, pl Pipeline) (*Result, error) {
	r := pl.shared()
	var lastWork uint64
	head := pl.Head()
	for {
		if err := pollContext(ctx, r.Now); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.wm.mark(head, r.Measure, &r.Stats, r.Pred, r.Hier)
		if head >= r.End {
			break
		}
		r.Skip.Begin()
		c, err := pl.Step()
		if err != nil {
			return nil, err
		}
		r.Stats.Cat[c.Cat]++
		r.Stats.Cycles++
		if c.Done {
			break
		}
		if c.Progress {
			lastWork = r.Now
		}
		r.Now++
		head = pl.Head()
		r.Fetch.Release(head)
		if c.Idle && r.skipOn {
			if d := r.Skip.Jump(r.Hier, r.Now); d > 0 {
				r.Stats.Cat[c.Cat] += d
				r.Stats.Cycles += d
				pl.Credit(d)
				r.Now += d
			}
		}
		if r.Now-lastWork > progressWindow {
			return nil, fmt.Errorf("%s: no progress for %d cycles at seq %d", name, progressWindow, head)
		}
	}

	r.Stats.Branch = r.Pred.Stats()
	r.Stats.Memory = r.Hier.Stats()
	r.wm.discard(&r.Stats)
	if err := r.Stats.CheckConsistency(); err != nil {
		return nil, err
	}
	res := &Result{Stats: r.Stats}
	if r.Own != nil {
		res.RF, res.Mem = r.Own.RF, r.Own.Mem
	} else if fin := r.Stream.FinalState(); fin != nil {
		// The oracle-driven models simulate no values, so their outcome is
		// the oracle's final state; wrong paths are never simulated, so
		// nothing can leak. Only an interval whose recording reaches the
		// halt has one, and the interval that retires the halt, which the
		// stitcher uses, is among them.
		res.RF, res.Mem = fin.RF, fin.Mem
	}
	return res, nil
}

// ctxPollMask throttles context polling: the poll fires when
// now&ctxPollMask == 0, every 1024 simulated cycles — frequent enough that a
// canceled run stops well within one progress window, rare enough to cost
// nothing against the work of a simulated cycle.
const ctxPollMask = 1<<10 - 1

// pollContext returns ctx's error once per poll interval of simulated cycles
// (and always on cycle 0, so a pre-canceled context stops a run before any
// work).
func pollContext(ctx context.Context, now uint64) error {
	if now&ctxPollMask != 0 {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// warmMark tracks the warm-up/measurement boundary. The driver calls mark at
// the top of every cycle with the pipeline's head; the first cycle at or past
// the measure boundary snapshots the running stats plus the live predictor
// and hierarchy counters (Stats.Branch/Memory are only assigned at the end
// of a run, so the baseline must read the devices directly). discard then
// subtracts that baseline from the final stats, leaving only the measured
// region. For a monolithic run (measure 0) the baseline is captured on cycle
// zero with all counters zero, so discard is an exact no-op.
type warmMark struct {
	marked bool
	warm   Stats
}

// mark captures the warm-up baseline once seq reaches the measure boundary.
func (m *warmMark) mark(seq, measure uint64, st *Stats, pred *bpred.Gshare, hier *mem.Hierarchy) {
	if m.marked || seq < measure {
		return
	}
	m.marked = true
	m.warm = *st
	m.warm.Branch = pred.Stats()
	m.warm.Memory = hier.Stats()
}

// cut is the measure boundary until the baseline is captured (so the
// baseline lands exactly on it), the end bound after.
func (m *warmMark) cut(measure, end uint64) uint64 {
	if !m.marked {
		return measure
	}
	return end
}

// discard subtracts the warm-up baseline from the final stats. Call after
// st.Branch/st.Memory have been assigned.
func (m *warmMark) discard(st *Stats) { st.Sub(&m.warm) }
