package core

import (
	"context"
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
)

// Machine is the multipass pipeline model.
type Machine struct {
	cfg Config
	tr  *sim.Trace
}

// UseTrace implements sim.TraceUser: subsequent runs of the traced program
// read the pre-decoded stream instead of re-interpreting it.
func (m *Machine) UseTrace(tr *sim.Trace) { m.tr = tr }

// New validates the configuration and returns the model.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := mem.NewHierarchy(cfg.Hier); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// Name implements sim.Machine.
func (m *Machine) Name() string {
	switch {
	case m.cfg.DisableRegroup && m.cfg.DisableRestart:
		return "multipass-noregroup-norestart"
	case m.cfg.DisableRegroup:
		return "multipass-noregroup"
	case m.cfg.DisableRestart:
		return "multipass-norestart"
	}
	return "multipass"
}

// mode is the pipeline's operating mode (§3.1, Figure 3).
type mode int

const (
	modeArch mode = iota
	modeAdvance
	modeRally
)

// run is the per-run state of the multipass pipeline.
type run struct {
	cfg    *Config
	p      *isa.Program
	hier   *mem.Hierarchy
	pred   *bpred.Gshare
	stream *sim.Stream
	fe     *sim.FetchUnit

	// Architectural state owned by the machine (not the oracle).
	ownRF  *arch.RegFile
	ownMem *arch.Memory
	ownPC  int

	// Architectural scoreboard.
	readyAt  [isa.NumFlatRegs]uint64
	prodKind [isa.NumFlatRegs]sim.ProducerKind

	// Multipass structures.
	rs  *resultStore
	asc *asc
	// Speculative register file with A-bits (redirect) and I-bits (invalid).
	srf        [isa.NumFlatRegs]isa.Word
	aBit       [isa.NumFlatRegs]bool
	iBit       [isa.NumFlatRegs]bool
	advReadyAt [isa.NumFlatRegs]uint64

	st   sim.Stats
	now  uint64
	next uint64 // DEQ: next architectural sequence to process
	mode mode
	// maxPeek is one past the farthest pre-executed sequence; rally ends
	// when next catches up (§3.1.3).
	maxPeek uint64

	// Advance episode state.
	trigger       uint64
	stallUntil    uint64
	peek          uint64
	storeDeferred bool
	passBlocked   bool
	// blockAt is the episode-persistent wrong-path point: the IQ is
	// fetched once per episode along the predicted path, so a branch that
	// was guessed wrong stays wrong for every pass of the episode.
	blockAt uint64
	// deferRun counts consecutive deferrals in the current pass, for the
	// hardware restart heuristic.
	deferRun int

	halted   bool
	lastWork uint64
	regBuf   [4]isa.Reg

	// Interval window (sim.Checkpoint bounds). For a monolithic run these
	// degenerate to measure == 0, end == ^uint64(0) and every check below
	// is a no-op.
	measure uint64
	end     uint64
	wm      sim.WarmMark

	// Idle-cycle fast-forwarding (see sim.SkipState). The cycle functions
	// report whether the cycle was provably idle and which stall category
	// its repeats are charged to; mode counters are credited by the mode in
	// effect after the cycle (commitCycle may flip rally to arch at its end,
	// and repeats of that cycle run in the new mode).
	skip       sim.SkipState
	skipOn     bool
	idle       bool
	idleCat    sim.StallKind
	idleIQFull bool // repeats also charge Multipass.IQFullCycles
}

const progressWindow = 1 << 20

// Run implements sim.Machine.
func (m *Machine) Run(ctx context.Context, p *isa.Program, image *arch.Memory) (*sim.Result, error) {
	return m.runFrom(ctx, p, image, nil)
}

// CheckpointSpec implements sim.IntervalRunner.
func (m *Machine) CheckpointSpec() sim.CheckpointSpec {
	return sim.CheckpointSpec{Hier: m.cfg.Hier, PredictorEntries: m.cfg.PredictorEntries, MaxInsts: m.cfg.MaxInsts}
}

// RunInterval implements sim.IntervalRunner: it simulates one checkpointed
// interval of the dynamic stream. The machine carries only read-only state
// (config, trace), so concurrent interval calls are safe.
func (m *Machine) RunInterval(ctx context.Context, p *isa.Program, image *arch.Memory, ck *sim.Checkpoint) (*sim.Result, error) {
	return m.runFrom(ctx, p, image, ck)
}

// runFrom is the cycle loop, generalized over a starting checkpoint. With a
// nil checkpoint (a monolithic Run) the window bounds degenerate to
// [0, ^uint64(0)) with measurement from zero, and every added check is a
// no-op: the golden stats stay byte-identical.
func (m *Machine) runFrom(ctx context.Context, p *isa.Program, image *arch.Memory, ck *sim.Checkpoint) (*sim.Result, error) {
	cfg := m.cfg
	r := &run{
		cfg:  &cfg,
		p:    p,
		hier: mem.MustNewHierarchy(cfg.Hier),
		pred: bpred.New(cfg.PredictorEntries),
		rs:   newResultStore(cfg.IQSize),
		asc:  newASC(cfg.ASCEntries, cfg.ASCWays),
	}
	var start uint64
	start, r.measure, r.end = ck.Bounds()
	if ck == nil {
		r.ownRF = arch.NewRegFile()
		r.ownMem = image.Clone()
		r.stream = sim.StreamFor(p, image, cfg.MaxInsts, m.tr)
	} else {
		if err := r.hier.RestoreWarm(ck.Caches); err != nil {
			return nil, err
		}
		if err := r.pred.RestoreWarm(ck.Pred); err != nil {
			return nil, err
		}
		r.ownRF = ck.RF.Clone()
		r.ownMem = ck.Mem.Clone()
		r.ownPC = ck.PC
		r.stream = sim.StreamFrom(p, ck, cfg.MaxInsts, m.tr)
	}
	r.fe = sim.NewFetchUnit(r.stream, r.hier, cfg.FetchWidth)
	r.fe.StartAt(start)
	r.next = start
	r.maxPeek = start
	r.skipOn = !cfg.DisableSkip

	for !r.halted && r.next < r.end {
		if err := sim.PollContext(ctx, r.now); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		r.wm.Mark(r.next, r.measure, &r.st, r.pred, r.hier)
		if r.mode == modeAdvance && r.now >= r.stallUntil {
			r.exitAdvance()
		}
		r.skip.Begin()
		r.idle, r.idleIQFull = false, false
		var err error
		if r.mode == modeAdvance {
			err = r.advanceCycle()
		} else {
			err = r.commitCycle()
		}
		if err != nil {
			return nil, err
		}
		r.st.Cycles++
		r.now++
		r.fe.Release(r.next)
		if r.skipOn && r.idle {
			if d := r.skip.Jump(r.hier, r.now); d > 0 {
				r.st.Cat[r.idleCat] += d
				switch r.mode {
				case modeAdvance:
					r.st.Multipass.AdvanceCycles += d
					if r.idleIQFull {
						r.st.Multipass.IQFullCycles += d
					}
				case modeRally:
					r.st.Multipass.RallyCycles += d
				default:
					r.st.Multipass.ArchCycles += d
				}
				r.st.Cycles += d
				r.now += d
			}
		}
		if r.now-r.lastWork > progressWindow {
			return nil, fmt.Errorf("core: no progress for %d cycles at seq %d (mode %d)", progressWindow, r.next, r.mode)
		}
	}

	r.st.Branch = r.pred.Stats()
	r.st.Memory = r.hier.Stats()
	r.wm.Discard(&r.st)
	if err := r.st.CheckConsistency(); err != nil {
		return nil, err
	}
	return &sim.Result{Stats: r.st, RF: r.ownRF, Mem: r.ownMem}, nil
}

// exitAdvance switches to rally mode: latched architectural instructions
// displace the advance stream, and the A-bit vector is cleared, which
// effectively clears the SRF (§3.1.3). The RS survives.
func (r *run) exitAdvance() {
	r.mode = modeRally
	r.clearPassState()
	r.traceRally()
}

// clearPassState clears the per-pass speculative state: A-bits/I-bits (the
// SRF), the ASC, and the deferred-store poison flag.
func (r *run) clearPassState() {
	clear(r.aBit[:])
	clear(r.iBit[:])
	r.asc.clear()
	r.storeDeferred = false
	r.passBlocked = false
	r.deferRun = 0
}

// enterAdvance begins an advance episode triggered by the instruction at
// seq stalling on reg (paper §3.1.2).
func (r *run) enterAdvance(seq uint64, until uint64) {
	r.skip.MarkDirty() // mode change: the next cycle is an advance cycle
	r.mode = modeAdvance
	r.trigger = seq
	r.stallUntil = until
	r.peek = seq
	r.blockAt = ^uint64(0)
	r.clearPassState()
	r.st.Multipass.AdvanceEntries++
	r.st.Multipass.AdvancePasses++
	r.traceAdvanceEnter()
}

// restartPass implements advance restart (§3.3): speculative per-pass state
// clears, the RS persists, and the PEEK pointer returns to the trigger.
func (r *run) restartPass() {
	r.skip.MarkDirty() // pass counters and PEEK change even when no slot was used
	r.clearPassState()
	r.peek = r.trigger
	r.st.Multipass.AdvancePasses++
}

// commitWrite commits a computed value to the machine's architectural
// register file, including the complement predicate for compares.
func (r *run) commitWrite(in *isa.Inst, v isa.Word) {
	if in.Dst.IsNone() {
		return
	}
	r.ownRF.Write(in.Dst, v)
	if !in.Dst2.IsNone() {
		r.ownRF.Write(in.Dst2, isa.BoolWord(!v.Bool()))
	}
}

// setReady updates the architectural scoreboard for the instruction's
// destinations.
func (r *run) setReady(in *isa.Inst, at uint64, kind sim.ProducerKind, groupWrites *sim.RegSet, trackGroup bool) {
	for _, reg := range in.Writes(r.regBuf[:0]) {
		if trackGroup {
			groupWrites.Add(reg)
		}
		if reg.IsZeroReg() {
			continue
		}
		f := reg.Flat()
		r.readyAt[f] = at
		r.prodKind[f] = kind
	}
}
