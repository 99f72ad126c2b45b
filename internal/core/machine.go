package core

import (
	"multipass/internal/arch"
	// Imported for the compiler, not for names: Go inlines another package's
	// functions only when it imports that package, and the hot path calls
	// Gshare.Predict through the shared sim.Run.
	_ "multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/sim"
)

// Machine is the multipass pipeline model.
type Machine struct{ sim.Model }

// New validates the configuration and returns the model.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Fetch and advance pre-execution run at most IQSize past the commit
	// head.
	m, err := sim.NewModel(cfg.name(), cfg.Config, true, cfg.IQSize, func(sr sim.Run) sim.Pipeline {
		return &run{
			Run:     sr,
			cfg:     &cfg,
			ownRF:   sr.Own.RF,
			ownMem:  sr.Own.Mem,
			ownPC:   sr.Own.PC,
			rs:      newResultStore(cfg.IQSize),
			asc:     newASC(cfg.ASCEntries, cfg.ASCWays),
			next:    sr.Start,
			maxPeek: sr.Start,
		}
	})
	if err != nil {
		return nil, err
	}
	return &Machine{m}, nil
}

// name is the model name of the configuration: the full machine or one of
// the Figure 8 ablations.
func (c *Config) name() string {
	switch {
	case c.DisableRegroup && c.DisableRestart:
		return "multipass-noregroup-norestart"
	case c.DisableRegroup:
		return "multipass-noregroup"
	case c.DisableRestart:
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

// run is the per-run state of the multipass pipeline. The driver
// (sim.Model) owns the clock, the interval window and idle-cycle skipping.
type run struct {
	sim.Run
	cfg *Config

	// Architectural state owned by the machine (not the oracle): the
	// registers and memory of Run.Own, and the machine's own PC.
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

	next uint64 // DEQ: next architectural sequence to process
	mode mode
	// maxPeek is one past the farthest pre-executed sequence; rally ends
	// when next catches up (§3.1.3). It starts at the interval start, so
	// lookahead accounting is window-relative.
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

	halted bool
	regBuf [4]isa.Reg
	// idleIQFull records that the last advance cycle stalled on the
	// instruction queue limit without using a slot.
	idleIQFull bool
}

// Head implements sim.Pipeline: DEQ, constant during an advance episode.
func (r *run) Head() uint64 { return r.next }

// Credit implements sim.Pipeline. Skipped repeats count toward the mode in
// effect after the cycle: commitCycle may flip rally to arch at its end, and
// the repeats of that cycle run in the new mode.
func (r *run) Credit(n uint64) {
	mp := &r.Stats.Multipass
	switch r.mode {
	case modeAdvance:
		mp.AdvanceCycles += n
		if r.idleIQFull {
			mp.IQFullCycles += n
		}
	case modeRally:
		mp.RallyCycles += n
	default:
		mp.ArchCycles += n
	}
}

// Step leaves a finished advance episode for rally, then runs one advance
// or commit cycle.
func (r *run) Step() (sim.Cycle, error) {
	if r.mode == modeAdvance && r.Now >= r.stallUntil {
		r.exitAdvance()
	}
	if r.mode == modeAdvance {
		return r.advanceCycle()
	}
	return r.commitCycle()
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
	r.Skip.MarkDirty() // mode change: the next cycle is an advance cycle
	r.mode = modeAdvance
	r.trigger = seq
	r.stallUntil = until
	r.peek = seq
	r.blockAt = ^uint64(0)
	r.clearPassState()
	r.Stats.Multipass.AdvanceEntries++
	r.Stats.Multipass.AdvancePasses++
	r.traceAdvanceEnter()
}

// restartPass implements advance restart (§3.3): speculative per-pass state
// clears, the RS persists, and the PEEK pointer returns to the trigger.
func (r *run) restartPass() {
	r.Skip.MarkDirty() // pass counters and PEEK change even when no slot was used
	r.clearPassState()
	r.peek = r.trigger
	r.Stats.Multipass.AdvancePasses++
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
