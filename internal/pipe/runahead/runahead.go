// Package runahead implements the Dundas-Mudge runahead model the paper
// compares against (§2, §5.4): an in-order pipeline that, on a stall-on-use
// of a load value, continues executing speculatively past the stall purely
// for its prefetching effect. No results are preserved: when the blocking
// load returns, the pipeline flushes all speculative state and re-executes
// every instruction from the stalled consumer onward. There is no advance
// restart and no issue regrouping.
package runahead

import (
	"fmt"

	// Imported for the compiler, not for names: Go inlines another package's
	// functions only when it imports that package, and the hot path calls
	// Gshare.Predict and Memory.LoadWord through the shared sim.Run.
	_ "multipass/internal/arch"
	_ "multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/sim"
)

func init() {
	sim.Register("runahead", func(opts sim.ModelOptions) (sim.Machine, error) {
		cfg := DefaultConfig()
		opts.Overlay(&cfg.Config)
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
type Machine struct{ sim.Model }

// New validates the configuration and returns the model.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ExitPenalty < 0 {
		return nil, fmt.Errorf("runahead: negative exit penalty")
	}
	// Fetch runs at most BufferSize past the head, an episode at most
	// runaheadLookahead.
	m, err := sim.NewModel("runahead", cfg.Config, true, max(cfg.BufferSize, runaheadLookahead), func(r sim.Run) sim.Pipeline {
		return &runState{Run: r, cfg: &cfg, next: r.Start}
	})
	if err != nil {
		return nil, err
	}
	return &Machine{m}, nil
}

// runState is one run of the runahead pipeline. The driver (sim.Model) owns
// the clock, the interval window and idle-cycle skipping.
type runState struct {
	sim.Run
	cfg *Config

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

	next     uint64
	resumeAt uint64 // no architectural issue before this (exit penalty)
	halted   bool
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

// Head implements sim.Pipeline: the next architectural sequence, constant
// during an episode.
func (r *runState) Head() uint64 { return r.next }

// Credit implements sim.Pipeline: skipped repeats of an idle episode cycle
// are runahead cycles too. An episode entry marks its cycle dirty, so an
// idle cycle is in an episode exactly when it was a runahead cycle.
func (r *runState) Credit(n uint64) {
	if r.inEpisode {
		r.Stats.Runahead.Cycles += n
	}
}

// Step leaves a finished episode, then runs one runahead or architectural
// cycle.
func (r *runState) Step() (sim.Cycle, error) {
	if r.inEpisode && r.Now >= r.stallUntil {
		r.exitEpisode()
	}
	if r.inEpisode {
		return r.runaheadCycle()
	}
	return r.archCycle()
}

func (r *runState) enterEpisode(until uint64) {
	r.Skip.MarkDirty() // mode change: the next cycle is a runahead cycle
	r.inEpisode = true
	r.stallUntil = until
	r.peek = r.next
	r.blocked = false
	clear(r.raBit[:])
	clear(r.raInvalid[:])
	r.raStoreBuf = r.raStoreBuf[:0]
	clear(r.raStoreIdx[:])
	r.Stats.Runahead.Episodes++
}

func (r *runState) exitEpisode() {
	// All speculative work is discarded; the pipeline restores and
	// re-executes from the stalled instruction.
	r.inEpisode = false
	r.resumeAt = r.stallUntil + uint64(r.cfg.ExitPenalty)
}

// archCycle is the baseline in-order issue cycle with runahead entry on
// load stall-on-use.
func (r *runState) archCycle() (sim.Cycle, error) {
	r.Fetch.SetLimit(r.next + uint64(r.cfg.BufferSize))
	var use isa.FUUse
	var groupWrites sim.RegSet
	issued := 0
	blocker := sim.StallFrontEnd
	now := r.Now

	if now < r.resumeAt {
		// Pipeline restore after a runahead episode.
		r.Skip.Note(r.resumeAt)
		return sim.Cycle{Cat: sim.StallLoad, Idle: true}, nil
	}

	cut := r.Cut()

group:
	for issued < r.cfg.Caps.MaxIssue && !r.halted {
		if r.next >= cut {
			// Window boundary: no group spans the measurement mark or the
			// interval end, and no episode is entered past it.
			break
		}
		d, err := r.Stream.At(r.next)
		if err != nil {
			return sim.Cycle{}, err
		}
		if d == nil {
			return sim.Cycle{}, fmt.Errorf("runahead: stream ended before halt")
		}
		fready, ok, err := r.Fetch.ReadyAt(r.next)
		if err != nil {
			return sim.Cycle{}, err
		}
		if !ok {
			return sim.Cycle{}, fmt.Errorf("runahead: fetch ended before halt")
		}
		if fready > now {
			blocker = sim.StallFrontEnd
			r.Skip.Note(fready)
			break
		}
		s := &r.Ops[d.Index]

		if q := s.QP; q >= 0 {
			if groupWrites.Has(q) {
				break
			}
			if r.readyAt[q] > now {
				if r.prodKind[q] == sim.ProducerLoad {
					r.enterEpisode(r.readyAt[q])
					blocker = sim.StallLoad
					break
				}
				blocker = r.prodKind[q].StallFor()
				r.Skip.Note(r.readyAt[q])
				break
			}
		}
		qpTrue := r.Own.RF.Read(d.Inst.QP).Bool()

		if qpTrue && !s.IsBranch() {
			for _, f := range s.Srcs() {
				if groupWrites.Has(f) {
					break group
				}
				if r.readyAt[f] > now {
					if r.prodKind[f] == sim.ProducerLoad {
						r.enterEpisode(r.readyAt[f])
						blocker = sim.StallLoad
						break group
					}
					blocker = r.prodKind[f].StallFor()
					r.Skip.Note(r.readyAt[f])
					break group
				}
			}
		}
		if qpTrue {
			lat := uint64(s.Lat)
			for _, f := range s.Dsts() {
				if groupWrites.Has(f) {
					break group
				}
				if r.readyAt[f] > now+lat {
					blocker = sim.StallOther
					r.Skip.Note(r.readyAt[f] - lat)
					break group
				}
			}
		}
		if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
			blocker = sim.StallOther
			break
		}

		if r.Own.PC != int(d.Index) {
			return sim.Cycle{}, fmt.Errorf("runahead: own PC %d diverged from stream %d", r.Own.PC, d.Index)
		}
		info, err := r.Own.Step(r.Prog)
		if err != nil {
			return sim.Cycle{}, err
		}
		use.AddClass(s.FU, s.Kind)
		r.Stats.Retired++
		issued++

		completion := now + uint64(s.Lat)
		kind := sim.ProducerOther
		switch {
		case info.IsLoad:
			completion = r.Hier.AccessData(info.MemAddr, now, false, false)
			kind = sim.ProducerLoad
		case info.IsStore:
			r.Hier.AccessData(info.MemAddr, now, true, false)
		}
		if !info.Squashed {
			for _, f := range s.Dsts() {
				groupWrites.Add(f)
				r.readyAt[f] = completion
				r.prodKind[f] = kind
			}
		}
		if s.Kind == isa.KindHalt {
			r.halted = true
		}
		r.next++
		if info.IsBranch {
			correct := r.Pred.Update(s.Addr, d.Taken)
			if !correct {
				r.Fetch.Flush(r.next, now+1+uint64(r.cfg.MispredictPenalty))
			}
			if d.Taken || !correct {
				break
			}
		}
	}

	if issued > 0 {
		return sim.Cycle{Cat: sim.StallExecution, Progress: true, Done: r.halted}, nil
	}
	// An issue-free cycle mutated nothing (episode entry marks the skip state
	// dirty, so Jump refuses after enterEpisode).
	return sim.Cycle{Cat: blocker, Idle: true}, nil
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
	if r.readyAt[f] > r.Now {
		if r.prodKind[f] == sim.ProducerLoad {
			return false, 0, 0
		}
		return true, r.readyAt[f], r.Own.RF.Read(reg)
	}
	return true, 0, r.Own.RF.Read(reg)
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

func (r *runState) poisonRA(s *sim.StaticInst) {
	for _, f := range s.Dsts() {
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
func (r *runState) runaheadCycle() (sim.Cycle, error) {
	r.Stats.Runahead.Cycles++
	r.Fetch.SetLimit(r.next + runaheadLookahead)

	var use isa.FUUse
	slots := 0
	progress := false
	now := r.Now
	wasBlocked := r.blocked
	// Step exits the episode once now reaches stallUntil, so that is the
	// latest cycle an idle runahead cycle may replay to.
	r.Skip.Note(r.stallUntil)

	for slots < r.cfg.Caps.MaxIssue && !r.blocked {
		if r.peek >= r.next+runaheadLookahead {
			break
		}
		d, err := r.Stream.At(r.peek)
		if err != nil {
			return sim.Cycle{}, err
		}
		if d == nil || r.Ops[d.Index].Kind == isa.KindHalt {
			r.blocked = true
			break
		}
		fready, ok, err := r.Fetch.ReadyAt(r.peek)
		if err != nil {
			return sim.Cycle{}, err
		}
		if !ok {
			r.blocked = true
			break
		}
		if fready > now {
			r.Skip.Note(fready)
			break
		}
		in, s := d.Inst, &r.Ops[d.Index]

		qpValid, qpReady, qpVal := r.readRA(in.QP)
		if !qpValid {
			if s.IsBranch() {
				if r.Pred.Predict(s.Addr) != d.Taken {
					r.blocked = true // wrong path beyond here
					break
				}
				slots++
				r.peek++
				continue
			}
			r.poisonRA(s)
			r.Stats.Runahead.Deferred++
			slots++
			r.peek++
			continue
		}
		if qpReady > now {
			r.Skip.Note(qpReady)
			break
		}
		qpTrue := qpVal.Bool()

		if s.IsBranch() {
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
		if s.Kind == isa.KindRestart {
			// No advance restart in Dundas-Mudge runahead: plain nop.
			slots++
			r.peek++
			continue
		}

		if s.IsStore() {
			av, ar, abase := r.readRA(in.Src1)
			if !av {
				slots++
				r.peek++
				continue
			}
			if ar > now {
				r.Skip.Note(ar)
				break
			}
			dv, dr, dval := r.readRA(in.Src2)
			if dv && dr > now {
				r.Skip.Note(dr)
				break
			}
			if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
				break
			}
			use.AddClass(s.FU, s.Kind)
			addr := abase.Uint32() + uint32(in.Imm)
			r.putStore(storeKey(addr, in.Op.MemBytes()), dval, !dv)
			r.Stats.Runahead.PreExecuted++
			slots++
			r.peek++
			continue
		}

		sv, sr, sval := r.readRA(in.Src1)
		var s2v bool
		var s2r uint64
		var s2val isa.Word
		if s.IsLoad() {
			s2v = true
		} else {
			s2v, s2r, s2val = r.readRA(in.Src2)
		}
		if !sv || !s2v {
			r.poisonRA(s)
			r.Stats.Runahead.Deferred++
			slots++
			r.peek++
			continue
		}
		if sr > now || s2r > now {
			if sr > now {
				r.Skip.Note(sr)
			}
			if s2r > now {
				r.Skip.Note(s2r)
			}
			break
		}
		if !use.FitsClass(s.FU, s.Kind, &r.cfg.Caps) {
			break
		}
		use.AddClass(s.FU, s.Kind)

		if s.IsLoad() {
			addr := sval.Uint32() + uint32(in.Imm)
			if st, hit := r.getStore(storeKey(addr, in.Op.MemBytes())); hit {
				if st.invalid {
					r.poisonRA(s)
				} else {
					r.writeRA(in.Dst, st.val, now+uint64(s.Lat))
				}
			} else {
				ready := r.Hier.AccessData(addr, now, false, true)
				if ready <= now+uint64(r.cfg.Hier.L1D.Latency) {
					r.writeRA(in.Dst, r.Own.Mem.LoadWord(in.Op, addr), ready)
				} else {
					r.poisonRA(s) // missing loads yield no value
				}
			}
		} else {
			v := isa.Eval(in.Op, sval, s2val, in.Imm)
			ready := now + uint64(s.Lat)
			r.writeRA(in.Dst, v, ready)
			if !in.Dst2.IsNone() {
				r.writeRA(in.Dst2, isa.BoolWord(!v.Bool()), ready)
			}
		}
		r.Stats.Runahead.PreExecuted++
		progress = true
		slots++
		r.peek++
	}

	// Runahead cycles are stall cycles hidden under the blocking load. With
	// nothing pre-executed and the blocked flag unflipped the cycle is Idle:
	// every mutation path in the loop above passes through slots++ or sets
	// blocked, so it replays identically until the earliest noted deadline
	// (at the latest, the episode exit at stallUntil).
	idle := slots == 0 && r.blocked == wasBlocked
	return sim.Cycle{Cat: sim.StallLoad, Idle: idle, Progress: progress}, nil
}
