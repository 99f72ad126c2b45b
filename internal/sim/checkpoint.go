package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"multipass/internal/arch"
	"multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/mem"
)

// SampleConfig configures SMARTS-style parallel interval simulation: the
// dynamic instruction stream is divided into intervals of Interval retired
// instructions, each simulated independently by a detailed timing model
// starting from a checkpoint taken Warmup instructions before the interval
// (the warm-up window's stats are discarded), and the per-interval stats are
// stitched into one run result.
type SampleConfig struct {
	// Interval is K, the number of retired instructions per measured
	// interval. Must be positive.
	Interval uint64
	// Warmup is W, the number of instructions simulated in detail before
	// each interval to re-establish pipeline and in-flight-miss state on top
	// of the checkpoint's warm caches and predictor. Stats from the warm-up
	// window are discarded. Zero selects the default, Interval/4.
	Warmup uint64
	// Workers bounds how many intervals simulate concurrently; <= 0 selects
	// GOMAXPROCS. Worker count affects wall clock only, never the stitched
	// statistics: interval boundaries are positions in the deterministic
	// dynamic stream.
	Workers int
	// Period selects sparse SMARTS measurement: only every Period-th interval
	// (0, P, 2P, ...) is simulated in detail and the stitched statistics are
	// extrapolated to the full stream length. 0 and 1 both mean full coverage
	// (every interval simulated, no extrapolation). Sparse mode trades the
	// full-coverage cycle guarantee for wall-clock: retired count and final
	// architectural state stay exact (both come from the functional pass),
	// but total cycles become an estimate whose error grows with program
	// phase heterogeneity.
	Period uint64
}

// period returns the canonical sampling period (>= 1).
func (c *SampleConfig) period() uint64 {
	if c.Period <= 1 {
		return 1
	}
	return c.Period
}

// CheckpointSpec reports the knobs a checkpoint builder needs to warm
// microarchitectural state compatibly with a timing model, and what each
// checkpoint must carry for the model to simulate its interval.
type CheckpointSpec struct {
	Hier             mem.HierConfig
	PredictorEntries int
	// MaxInsts bounds the functional fast-forward like the model's own
	// dynamic instruction limit; 0 means unbounded.
	MaxInsts uint64
	// Lookahead bounds how far past the interval end the model reads the
	// stream: an interval ending at End never requests a sequence at or
	// beyond End+Lookahead. The model derives it from its own buffer sizes.
	Lookahead uint64
	// Values reports that the model executes on its own architectural
	// state, so each checkpoint carries registers and memory.
	Values bool
}

// Checkpoint is the starting state for one interval simulation: the
// functional pass's record of the interval's dynamic stream, plus warm
// microarchitectural state — cache tags and LRU order, branch predictor
// table and history — accumulated by the pass up to sequence Seq, and for a
// value-simulating model the architectural state (registers, memory, PC)
// there. MSHRs are defined to be drained at a checkpoint: a functional
// fast-forward has no timing, so in-flight misses cannot be represented;
// the warm-up window re-establishes them before measurement begins.
type Checkpoint struct {
	// Seq is where detailed simulation starts (the warm-up window start).
	Seq uint64
	// Measure is where measurement starts: stats accumulated on sequences in
	// [Seq, Measure) are discarded as warm-up.
	Measure uint64
	// End is one past the last sequence this interval measures. A streamed
	// checkpoint's End is the optimistic Measure+K — the stream length is not
	// known yet when the checkpoint is handed out — and the final interval
	// simply reaches the halt first. Consumers that need the exact measured
	// span clamp End by the stream length N once the functional pass
	// finishes (CheckpointSource.Wait reports N).
	End uint64

	PC int
	// RF and Mem are the architectural state at Seq, captured only for a
	// model whose CheckpointSpec reports Values; nil otherwise.
	RF     *arch.RegFile
	Mem    *arch.Memory
	Caches *mem.WarmCaches
	Pred   bpred.WarmState

	// Events is the pass's record of sequences from Seq on, through End
	// plus the model's lookahead or through the halt, whichever comes
	// first, in stream order. It is a slice of the buffer the pass executed
	// into, which the pass never writes again: the recordings of
	// overlapping intervals share it, and a recording holds only events the
	// pass produced, however far past the halt End lies. The interval's
	// stream reads it in place instead of interpreting the program again.
	Events []arch.ExecEvent
	// Final is the architectural state at the halt when Events reaches it,
	// and nil otherwise.
	Final *arch.State
}

// Bounds returns the stream region the interval covers. A nil checkpoint
// means a monolithic run: start at zero, measure everything, no end bound.
func (c *Checkpoint) Bounds() (start, measure, end uint64) {
	if c == nil {
		return 0, 0, ^uint64(0)
	}
	return c.Seq, c.Measure, c.End
}

// maxIntervals bounds how many checkpoints one run may materialize; each
// carries warm cache and predictor state, so an accidentally tiny K on a
// long stream would otherwise exhaust memory before any simulation starts.
const maxIntervals = 4096

// ffEventChunk is how many retired-instruction events the fast-forward
// executes per superblock dispatch call before replaying them into the warm
// cache hierarchy and predictor. Each chunk boundary is also a cancellation
// poll point, so it bounds both the replay working set and the cancel
// latency (tens of microseconds of execution per chunk). It is also the
// smallest buffer recordings are held in.
const ffEventChunk = 32768

// CheckpointSource is a functional fast-forward in flight. Checkpoints
// arrive on C in stream order as the pass discovers them, so interval
// workers can start detailed simulation while the fast-forward is still
// running. After C closes, Wait reports the stream length, the exact final
// architectural state, the fast-forward duration, and the pass's error, if
// any. A checkpoint is only sent once its recording is complete or has
// reached the halt, and only if the pass retired past its Measure boundary,
// which guarantees every delivered checkpoint has a non-empty measured
// region; its End, however, is the optimistic Measure+K (see
// Checkpoint.End).
type CheckpointSource struct {
	C <-chan *Checkpoint

	done  chan struct{}
	n     uint64
	final *Snapshot
	ffDur time.Duration
	err   error
}

// Wait blocks until the fast-forward finishes and returns the dynamic stream
// length, the final architectural state, the fast-forward duration, and the
// first error. Callers must drain C (or cancel the context) or the producer
// may block forever on a full channel.
func (s *CheckpointSource) Wait() (n uint64, final *Snapshot, ffDur time.Duration, err error) {
	<-s.done
	return s.n, s.final, s.ffDur, s.err
}

// StreamCheckpoints starts the functional fast-forward as a streaming
// producer: the superblock interpreter (the same oracle xcheck validates
// against) executes the whole program in event chunks, warming a dedicated
// cache hierarchy and branch predictor along the retired path, and captures
// a checkpoint at each selected interval's warm-up start, max(0, i*K-W).
// Interval 0's checkpoint is the cold initial state, so its simulation is
// exactly a monolithic run truncated at K. From there the checkpoint
// records the events the pass executes until the recording spans
// End+spec.Lookahead or reaches the halt, and only then is it sent.
//
// Memory snapshots, taken only when spec.Values asks for them, are
// copy-on-write clones of the fast-forward image: consecutive checkpoints
// share the pages untouched between them, so capture cost follows the store
// stream rather than the image size. Checkpoints are read-only by contract
// (a consumer clones the memory before executing on it).
//
// The producer polls ctx between event chunks and shuts down promptly on
// cancellation; Wait then returns the context's error. The producer's CPU
// time is pprof-labeled phase=func_ffwd.
func StreamCheckpoints(ctx context.Context, p *isa.Program, image *arch.Memory, cfg SampleConfig, spec CheckpointSpec) (*CheckpointSource, error) {
	if cfg.Interval == 0 {
		return nil, fmt.Errorf("sim: sample interval must be positive")
	}
	hier, err := mem.NewHierarchy(spec.Hier)
	if err != nil {
		return nil, err
	}
	buf := cfg.Workers
	if buf < 4 {
		buf = 4
	}
	ch := make(chan *Checkpoint, buf)
	src := &CheckpointSource{C: ch, done: make(chan struct{})}
	start := time.Now()
	go pprof.Do(ctx, pprof.Labels("phase", "func_ffwd"), func(ctx context.Context) {
		defer close(src.done)
		defer close(ch)
		src.err = runFastForward(ctx, p, image, cfg, spec, hier, ch, src)
		src.ffDur = time.Since(start)
	})
	return src, nil
}

// runFastForward is the producer body: execute, warm, capture, record,
// send.
func runFastForward(ctx context.Context, p *isa.Program, image *arch.Memory, cfg SampleConfig, spec CheckpointSpec, hier *mem.Hierarchy, ch chan<- *Checkpoint, src *CheckpointSource) error {
	k, w := cfg.Interval, cfg.Warmup
	pred := bpred.New(spec.PredictorEntries)
	limit := spec.MaxInsts
	if limit == 0 {
		limit = ^uint64(0)
	}

	sb := arch.NewSBProgram(p)
	st := arch.NewState(image.Clone())

	lineMask := ^uint32(spec.Hier.L1I.LineBytes - 1)
	var lineAddr uint32
	haveLine := false

	warmStart := func(i uint64) uint64 {
		if s := i * k; s > w {
			return s - w
		}
		return 0
	}

	period := cfg.period()
	next := uint64(0) // next interval index to capture for
	captured := 0
	sent := 0

	// recordEnd is one past the last sequence ck's recording needs.
	recordEnd := func(ck *Checkpoint) uint64 {
		return min(ck.End, ^uint64(0)-spec.Lookahead) + spec.Lookahead
	}
	// pending holds captured checkpoints not yet sent, in capture order,
	// which is also the order their recordings complete in (End rises with
	// the interval index). While one is pending, rec holds the events of
	// sequences [pending[0].Seq, st.Retired), and the pass executes into
	// rec's spare capacity; a new buffer, when rec runs out of it, starts
	// with a copy of rec. When none is pending, the pass drops rec, so it
	// holds no buffer that only sent recordings still read. A checkpoint is sent once its recording is
	// complete or has reached the halt, with the recording sliced out of
	// rec; the pass writes only past rec's end, so that storage is never
	// written again. At the halt, a checkpoint whose measured region is
	// empty (Measure >= N) is dropped.
	var pending []*Checkpoint
	var rec []arch.ExecEvent
	flush := func() error {
		for len(pending) > 0 {
			ck := pending[0]
			end := recordEnd(ck)
			if !st.Halted && st.Retired < end {
				return nil
			}
			pending[0] = nil
			pending = pending[1:]
			n := min(end, st.Retired) - ck.Seq
			ck.Events = rec[:n:n]
			if len(pending) > 0 {
				rec = rec[pending[0].Seq-ck.Seq:]
			} else {
				rec = nil // the next recording starts a buffer of its own
			}
			if ck.Measure >= st.Retired {
				continue
			}
			if st.Halted && end >= st.Retired {
				ck.Final = st
			}
			select {
			case ch <- ck: // the consumer owns it now
			case <-ctx.Done():
				return ctx.Err()
			}
			sent++
		}
		return nil
	}

	// Between recordings the pass reuses one scratch chunk. A new buffer
	// is at least as large as the last one, so a run of sparse recordings
	// settles on one buffer per recording and copies nothing.
	scratch := make([]arch.ExecEvent, ffEventChunk)
	bufSize := ffEventChunk
	for !st.Halted {
		for warmStart(next) == st.Retired {
			if next%period == 0 {
				if captured >= maxIntervals {
					return fmt.Errorf("sim: sample interval %d yields more than %d intervals; use a larger interval", k, maxIntervals)
				}
				captured++
				ck := &Checkpoint{
					Seq:     st.Retired,
					Measure: next * k,
					End:     next*k + k,
					PC:      st.PC,
					Caches:  hier.CaptureWarm(),
					Pred:    pred.CaptureWarm(),
				}
				if spec.Values {
					ck.RF, ck.Mem = st.RF.Clone(), st.Mem.Clone()
				}
				pending = append(pending, ck)
			}
			next++
		}
		if st.Retired >= limit {
			return fmt.Errorf("sim: dynamic instruction limit %d exceeded", limit)
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		stopAt := warmStart(next)
		if stopAt > limit {
			stopAt = limit
		}
		evs := scratch
		if len(pending) > 0 {
			if cap(rec)-len(rec) < 2 { // a fused pair needs two slots
				bufSize = max(bufSize, 2*len(rec))
				rec = append(make([]arch.ExecEvent, 0, bufSize), rec...)
			}
			evs = rec[len(rec):min(cap(rec), len(rec)+ffEventChunk)]
		}
		_, nev, err := sb.ExecTrace(st, stopAt, evs)
		// Replay the chunk's events into the warm state before surfacing any
		// error: the instructions retired either way. The instruction side
		// warms per fetched line, mirroring the fetch unit — a taken branch
		// ends the current line (redirect) — and every branch trains the
		// predictor (a squashed branch is architecturally not taken).
		for i := 0; i < nev; i++ {
			e := &evs[i]
			fetch := isa.InstAddr(int(e.Idx))
			if line := fetch & lineMask; !haveLine || line != lineAddr {
				hier.WarmInst(line)
				lineAddr, haveLine = line, true
			}
			if e.Flags&arch.EvBranch != 0 {
				taken := e.Flags&arch.EvTaken != 0
				pred.Update(fetch, taken)
				if taken {
					haveLine = false
				}
			} else if e.Flags&arch.EvLoad != 0 {
				hier.WarmData(e.MemAddr, false)
			} else if e.Flags&arch.EvStore != 0 {
				hier.WarmData(e.MemAddr, true)
			}
		}
		if len(pending) > 0 {
			rec = rec[:len(rec)+nev]
		}
		if err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
	}

	// The last flush sent the recordings that reach the halt. The pass no
	// longer writes its state, so they and the final snapshot share it.
	src.n = st.Retired
	src.final = &Snapshot{RF: st.RF, Mem: st.Mem, Retired: st.Retired}
	if sent == 0 {
		return fmt.Errorf("sim: empty dynamic stream")
	}
	return nil
}
