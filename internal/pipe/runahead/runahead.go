// Package runahead implements the Dundas-Mudge runahead model the paper
// compares against (§2, §5.4): an in-order pipeline that, on a stall-on-use
// of a load value, continues executing speculatively past the stall purely
// for its prefetching effect. No results are preserved: when the blocking
// load returns, the pipeline flushes all speculative state and re-executes
// every instruction from the stalled consumer onward. There is no advance
// restart and no issue regrouping.
package runahead

import (
	"context"
	"fmt"

	"multipass/internal/arch"
	"multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
)

func init() {
	sim.Register("runahead", func(opts sim.ModelOptions) (sim.Machine, error) {
		cfg := DefaultConfig()
		cfg.Hier = opts.Hier
		if opts.MaxInsts != 0 {
			cfg.MaxInsts = opts.MaxInsts
		}
		cfg.DisableSkip = opts.DisableSkip
		return New(cfg)
	})
	sim.Describe("runahead", "checkpoint-and-runahead execution under long-latency misses")
}

// Config extends the common configuration with the runahead exit penalty.
type Config struct {
	sim.Config
	// ExitPenalty is the pipeline-restore cost in cycles when leaving a
	// runahead episode.
	ExitPenalty int
}

// DefaultConfig returns the runahead configuration used for the §5.4
// comparison: the baseline in-order machine plus runahead.
func DefaultConfig() Config {
	return Config{Config: sim.Default(), ExitPenalty: 2}
}

// Machine is the runahead model.
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
	if cfg.ExitPenalty < 0 {
		return nil, fmt.Errorf("runahead: negative exit penalty")
	}
	if _, err := mem.NewHierarchy(cfg.Hier); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// Name implements sim.Machine.
func (m *Machine) Name() string { return "runahead" }

const progressWindow = 1 << 20

type runState struct {
	cfg    *Config
	p      *isa.Program
	hier   *mem.Hierarchy
	pred   *bpred.Gshare
	stream *sim.Stream
	fe     *sim.FetchUnit
	own    *arch.State

	readyAt  [isa.NumFlatRegs]uint64
	prodKind [isa.NumFlatRegs]sim.ProducerKind

	// Runahead episode state (discarded at exit).
	inEpisode  bool
	stallUntil uint64
	peek       uint64
	blocked    bool
	raBit      [isa.NumFlatRegs]bool
	raInvalid  [isa.NumFlatRegs]bool
	raVal      [isa.NumFlatRegs]isa.Word
	raReady    [isa.NumFlatRegs]uint64
	// Episode store buffer: exact (addr,size) keyed forwarding. The buffer
	// is append-only within an episode and resliced to zero on entry, and
	// the bucket heads chain entries newest-first, so a lookup that stops at
	// the first key match sees exactly the map-overwrite semantics the
	// episode needs — without a per-episode map allocation. Links are one
	// past an entry's index, so zero marks an empty bucket or a chain end.
	raStoreBuf []raStoreEnt
	raStoreIdx [raStoreBuckets]int32

	st       sim.Stats
	now      uint64
	next     uint64
	resumeAt uint64 // no architectural issue before this (exit penalty)
	halted   bool
	lastWork uint64
	regBuf   [4]isa.Reg

	// Interval window (sim.Checkpoint.Bounds); wm tracks the warm-up
	// baseline. For a monolithic run the bounds degenerate to [0, ^uint64(0))
	// and every window check is a no-op.
	measure uint64
	end     uint64
	wm      sim.WarmMark

	// Idle-cycle fast-forwarding (see sim.SkipState). The cycle functions
	// report whether the cycle they just simulated was provably idle and
	// which counters its repeats must be credited to.
	skip    sim.SkipState
	skipOn  bool
	idle    bool          // cycle mutated nothing; repeats replay identically
	idleRA  bool          // repeats also count as runahead cycles
	idleCat sim.StallKind // stall category repeats are charged to
}

const raStoreBuckets = 512

type raStoreEnt struct {
	key     uint64
	val     isa.Word
	invalid bool
	prev    int32 // one past the next-older entry in this bucket, 0 at chain end
}

func storeKey(addr uint32, size int) uint64 {
	return uint64(addr)<<8 | uint64(size)
}

func storeBucket(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> 55) // top 9 bits of a Fibonacci hash
}

// putStore records a runahead store, shadowing any older entry with the key.
func (r *runState) putStore(key uint64, val isa.Word, invalid bool) {
	b := storeBucket(key)
	r.raStoreBuf = append(r.raStoreBuf, raStoreEnt{key: key, val: val, invalid: invalid, prev: r.raStoreIdx[b]})
	r.raStoreIdx[b] = int32(len(r.raStoreBuf))
}

// getStore returns the newest runahead store with the key, if any.
func (r *runState) getStore(key uint64) (raStoreEnt, bool) {
	for i := r.raStoreIdx[storeBucket(key)]; i > 0; i = r.raStoreBuf[i-1].prev {
		if e := r.raStoreBuf[i-1]; e.key == key {
			return e, true
		}
	}
	return raStoreEnt{}, false
}

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

func (m *Machine) runFrom(ctx context.Context, p *isa.Program, image *arch.Memory, ck *sim.Checkpoint) (*sim.Result, error) {
	cfg := m.cfg
	r := &runState{
		cfg:  &cfg,
		p:    p,
		hier: mem.MustNewHierarchy(cfg.Hier),
		pred: bpred.New(cfg.PredictorEntries),
	}
	var start uint64
	start, r.measure, r.end = ck.Bounds()
	if ck == nil {
		r.own = arch.NewState(image.Clone())
		r.stream = sim.StreamFor(p, image, cfg.MaxInsts, m.tr)
	} else {
		if err := r.hier.RestoreWarm(ck.Caches); err != nil {
			return nil, err
		}
		if err := r.pred.RestoreWarm(ck.Pred); err != nil {
			return nil, err
		}
		r.own = &arch.State{RF: ck.RF.Clone(), Mem: ck.Mem.Clone(), PC: ck.PC, Retired: ck.Seq}
		r.stream = sim.StreamFrom(p, ck, cfg.MaxInsts, m.tr)
	}
	r.fe = sim.NewFetchUnit(r.stream, r.hier, cfg.FetchWidth)
	r.fe.StartAt(start)
	r.next = start
	r.skipOn = !cfg.DisableSkip

	for !r.halted && r.next < r.end {
		if err := sim.PollContext(ctx, r.now); err != nil {
			return nil, fmt.Errorf("runahead: %w", err)
		}
		r.wm.Mark(r.next, r.measure, &r.st, r.pred, r.hier)
		if r.inEpisode && r.now >= r.stallUntil {
			r.exitEpisode()
		}
		r.skip.Begin()
		r.idle, r.idleRA = false, false
		var err error
		if r.inEpisode {
			err = r.runaheadCycle()
		} else {
			err = r.archCycle()
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
				if r.idleRA {
					r.st.Runahead.Cycles += d
				}
				r.st.Cycles += d
				r.now += d
			}
		}
		if r.now-r.lastWork > progressWindow {
			return nil, fmt.Errorf("runahead: no progress for %d cycles at seq %d", progressWindow, r.next)
		}
	}
	r.st.Branch = r.pred.Stats()
	r.st.Memory = r.hier.Stats()
	r.wm.Discard(&r.st)
	if err := r.st.CheckConsistency(); err != nil {
		return nil, err
	}
	return &sim.Result{Stats: r.st, RF: r.own.RF, Mem: r.own.Mem}, nil
}

func (r *runState) enterEpisode(until uint64) {
	r.skip.MarkDirty() // mode change: the next cycle is a runahead cycle
	r.inEpisode = true
	r.stallUntil = until
	r.peek = r.next
	r.blocked = false
	clear(r.raBit[:])
	clear(r.raInvalid[:])
	r.raStoreBuf = r.raStoreBuf[:0]
	clear(r.raStoreIdx[:])
	r.st.Runahead.Episodes++
}

func (r *runState) exitEpisode() {
	// All speculative work is discarded; the pipeline restores and
	// re-executes from the stalled instruction.
	r.inEpisode = false
	r.resumeAt = r.stallUntil + uint64(r.cfg.ExitPenalty)
}

// archCycle is the baseline in-order issue cycle with runahead entry on
// load stall-on-use.
func (r *runState) archCycle() error {
	r.fe.SetLimit(r.next + uint64(r.cfg.BufferSize))
	var use isa.FUUse
	var groupWrites sim.RegSet
	issued := 0
	blocker := sim.StallFrontEnd
	now := r.now

	if now < r.resumeAt {
		// Pipeline restore after a runahead episode.
		r.st.Cat[sim.StallLoad]++
		r.idle, r.idleCat = true, sim.StallLoad
		r.skip.Note(r.resumeAt)
		return nil
	}

	cut := r.wm.Cut(r.measure, r.end)

group:
	for issued < r.cfg.Caps.MaxIssue && !r.halted {
		if r.next >= cut {
			// Window boundary: no group spans the measurement mark or the
			// interval end (unreachable with issued == 0; the outer loop and
			// Mark run first).
			break
		}
		d, err := r.stream.At(r.next)
		if err != nil {
			return err
		}
		if d == nil {
			return fmt.Errorf("runahead: stream ended before halt")
		}
		fready, ok, err := r.fe.ReadyAt(r.next)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("runahead: fetch ended before halt")
		}
		if fready > now {
			blocker = sim.StallFrontEnd
			r.skip.Note(fready)
			break
		}
		in := d.Inst

		if groupWrites.Has(in.QP) {
			break
		}
		if qf := in.QP.Flat(); r.readyAt[qf] > now {
			if r.prodKind[qf] == sim.ProducerLoad {
				r.enterEpisode(r.readyAt[qf])
				blocker = sim.StallLoad
				break
			}
			blocker = r.prodKind[qf].StallFor()
			r.skip.Note(r.readyAt[qf])
			break
		}
		qpTrue := r.own.RF.Read(in.QP).Bool()

		if qpTrue && !in.Op.IsBranch() {
			for _, reg := range in.Reads(r.regBuf[:0]) {
				if reg == in.QP {
					continue
				}
				if groupWrites.Has(reg) {
					break group
				}
				if f := reg.Flat(); r.readyAt[f] > now {
					if r.prodKind[f] == sim.ProducerLoad {
						r.enterEpisode(r.readyAt[f])
						blocker = sim.StallLoad
						break group
					}
					blocker = r.prodKind[f].StallFor()
					r.skip.Note(r.readyAt[f])
					break group
				}
			}
		}
		if qpTrue {
			lat := uint64(in.Op.Latency())
			for _, reg := range in.Writes(r.regBuf[:0]) {
				if groupWrites.Has(reg) {
					break group
				}
				if f := reg.Flat(); r.readyAt[f] > now+lat {
					blocker = sim.StallOther
					r.skip.Note(r.readyAt[f] - lat)
					break group
				}
			}
		}
		if !use.Fits(in.Op, &r.cfg.Caps) {
			blocker = sim.StallOther
			break
		}

		if r.own.PC != int(d.Index) {
			return fmt.Errorf("runahead: own PC %d diverged from stream %d", r.own.PC, d.Index)
		}
		info, err := r.own.Step(r.p)
		if err != nil {
			return err
		}
		use.Add(in.Op)
		r.st.Retired++
		issued++
		r.lastWork = now

		completion := now + uint64(in.Op.Latency())
		kind := sim.ProducerOther
		switch {
		case info.IsLoad:
			completion = r.hier.AccessData(info.MemAddr, now, false, false)
			kind = sim.ProducerLoad
		case info.IsStore:
			r.hier.AccessData(info.MemAddr, now, true, false)
		}
		if !info.Squashed {
			for _, reg := range in.Writes(r.regBuf[:0]) {
				groupWrites.Add(reg)
				if f := reg.Flat(); !reg.IsZeroReg() {
					r.readyAt[f] = completion
					r.prodKind[f] = kind
				}
			}
		}
		if in.Op.Kind() == isa.KindHalt {
			r.halted = true
		}
		r.next++
		if info.IsBranch {
			correct := r.pred.Update(d.Addr(), d.Taken)
			if !correct {
				r.fe.Flush(r.next, now+1+uint64(r.cfg.MispredictPenalty))
			}
			if d.Taken || !correct {
				break
			}
		}
	}

	if issued > 0 {
		r.st.Cat[sim.StallExecution]++
	} else {
		r.st.Cat[blocker]++
		// An issue-free cycle mutated nothing (episode entry marks the skip
		// state dirty, so Jump refuses after enterEpisode).
		r.idle, r.idleCat = true, blocker
	}
	return nil
}

// readRA reads an operand for the runahead stream.
func (r *runState) readRA(reg isa.Reg) (valid bool, ready uint64, val isa.Word) {
	if reg.IsNone() {
		return true, 0, 0
	}
	f := reg.Flat()
	if r.raBit[f] {
		if r.raInvalid[f] {
			return false, 0, 0
		}
		return true, r.raReady[f], r.raVal[f]
	}
	if r.readyAt[f] > r.now {
		if r.prodKind[f] == sim.ProducerLoad {
			return false, 0, 0
		}
		return true, r.readyAt[f], r.own.RF.Read(reg)
	}
	return true, 0, r.own.RF.Read(reg)
}

func (r *runState) writeRA(reg isa.Reg, v isa.Word, ready uint64) {
	if reg.IsNone() || reg.IsZeroReg() {
		return
	}
	f := reg.Flat()
	r.raBit[f] = true
	r.raInvalid[f] = false
	r.raVal[f] = v
	r.raReady[f] = ready
}

func (r *runState) poisonRA(in *isa.Inst) {
	for _, reg := range in.Writes(r.regBuf[:0]) {
		if reg.IsZeroReg() {
			continue
		}
		f := reg.Flat()
		r.raBit[f] = true
		r.raInvalid[f] = true
	}
}

// runaheadLookahead bounds how far an episode may fetch ahead. Runahead
// instructions flow through the pipeline and are re-fetched after the
// episode, so lookahead is fetch-limited rather than buffer-limited; the
// bound is a safety valve only.
const runaheadLookahead = 4096

// runaheadCycle pre-executes speculatively for prefetching only.
func (r *runState) runaheadCycle() error {
	r.st.Runahead.Cycles++
	r.fe.SetLimit(r.next + runaheadLookahead)

	var use isa.FUUse
	slots := 0
	now := r.now
	wasBlocked := r.blocked
	// The main loop exits the episode once now reaches stallUntil, so that
	// is the latest cycle an idle runahead cycle may replay to.
	r.skip.Note(r.stallUntil)

	for slots < r.cfg.Caps.MaxIssue && !r.blocked {
		if r.peek >= r.next+runaheadLookahead {
			break
		}
		d, err := r.stream.At(r.peek)
		if err != nil {
			return err
		}
		if d == nil || d.Inst.Op.Kind() == isa.KindHalt {
			r.blocked = true
			break
		}
		fready, ok, err := r.fe.ReadyAt(r.peek)
		if err != nil {
			return err
		}
		if !ok {
			r.blocked = true
			break
		}
		if fready > now {
			r.skip.Note(fready)
			break
		}
		in := d.Inst

		qpValid, qpReady, qpVal := r.readRA(in.QP)
		if !qpValid {
			if in.Op.IsBranch() {
				if r.pred.Predict(d.Addr()) != d.Taken {
					r.blocked = true // wrong path beyond here
					break
				}
				slots++
				r.peek++
				continue
			}
			r.poisonRA(in)
			r.st.Runahead.Deferred++
			slots++
			r.peek++
			continue
		}
		if qpReady > now {
			r.skip.Note(qpReady)
			break
		}
		qpTrue := qpVal.Bool()

		if in.Op.IsBranch() {
			if qpTrue != d.Taken {
				r.blocked = true // speculative divergence from the true path
				break
			}
			slots++
			r.peek++
			if d.Taken {
				break
			}
			continue
		}
		if !qpTrue {
			slots++
			r.peek++
			continue
		}
		if in.Op == isa.OpRestart {
			// No advance restart in Dundas-Mudge runahead: plain nop.
			slots++
			r.peek++
			continue
		}

		if in.Op.IsStore() {
			av, ar, abase := r.readRA(in.Src1)
			if !av {
				slots++
				r.peek++
				continue
			}
			if ar > now {
				r.skip.Note(ar)
				break
			}
			dv, dr, dval := r.readRA(in.Src2)
			if dv && dr > now {
				r.skip.Note(dr)
				break
			}
			if !use.Fits(in.Op, &r.cfg.Caps) {
				break
			}
			use.Add(in.Op)
			addr := abase.Uint32() + uint32(in.Imm)
			r.putStore(storeKey(addr, in.Op.MemBytes()), dval, !dv)
			r.st.Runahead.PreExecuted++
			slots++
			r.peek++
			continue
		}

		sv, sr, sval := r.readRA(in.Src1)
		var s2v bool
		var s2r uint64
		var s2val isa.Word
		if in.Op.IsLoad() {
			s2v = true
		} else {
			s2v, s2r, s2val = r.readRA(in.Src2)
		}
		if !sv || !s2v {
			r.poisonRA(in)
			r.st.Runahead.Deferred++
			slots++
			r.peek++
			continue
		}
		if sr > now || s2r > now {
			if sr > now {
				r.skip.Note(sr)
			}
			if s2r > now {
				r.skip.Note(s2r)
			}
			break
		}
		if !use.Fits(in.Op, &r.cfg.Caps) {
			break
		}
		use.Add(in.Op)

		if in.Op.IsLoad() {
			addr := sval.Uint32() + uint32(in.Imm)
			if st, hit := r.getStore(storeKey(addr, in.Op.MemBytes())); hit {
				if st.invalid {
					r.poisonRA(in)
				} else {
					r.writeRA(in.Dst, st.val, now+uint64(in.Op.Latency()))
				}
			} else {
				ready := r.hier.AccessData(addr, now, false, true)
				if ready <= now+uint64(r.cfg.Hier.L1D.Latency) {
					r.writeRA(in.Dst, r.own.Mem.LoadWord(in.Op, addr), ready)
				} else {
					r.poisonRA(in) // missing loads yield no value
				}
			}
		} else {
			v := isa.Eval(in.Op, sval, s2val, in.Imm)
			ready := now + uint64(in.Op.Latency())
			r.writeRA(in.Dst, v, ready)
			if !in.Dst2.IsNone() {
				r.writeRA(in.Dst2, isa.BoolWord(!v.Bool()), ready)
			}
		}
		r.st.Runahead.PreExecuted++
		r.lastWork = now
		slots++
		r.peek++
	}

	// Runahead cycles are stall cycles hidden under the blocking load.
	r.st.Cat[sim.StallLoad]++
	if slots == 0 && r.blocked == wasBlocked {
		// Nothing pre-executed and the blocked flag did not flip: every
		// mutation path in the loop above passes through slots++ or sets
		// blocked, so this cycle replays identically until the earliest
		// noted deadline (at the latest, the episode exit at stallUntil).
		r.idle, r.idleRA, r.idleCat = true, true, sim.StallLoad
	}
	return nil
}
