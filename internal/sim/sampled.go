package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"multipass/internal/arch"
	"multipass/internal/isa"
)

// IntervalRunner is implemented by timing models that can simulate one
// checkpointed interval of the dynamic stream. RunInterval with a nil
// checkpoint is exactly Run; with a checkpoint it starts the pipeline at
// ck.Seq from the checkpoint's warm state (and architectural state, for a
// model that simulates values), reads the stream from the checkpoint's
// recording, discards stats accumulated before ck.Measure, and stops
// issuing at ck.End. RunInterval
// must be safe for concurrent calls on the same machine value: interval
// workers share the machine (its config and pre-decoded trace are read-only)
// but nothing else.
type IntervalRunner interface {
	Machine
	CheckpointSpec() CheckpointSpec
	RunInterval(ctx context.Context, p *isa.Program, image *arch.Memory, ck *Checkpoint) (*Result, error)
}

// RunSampled simulates p in parallel across checkpointed intervals and
// stitches the per-interval stats into one result. The stitched result has
// the exact retired count and byte-identical final architectural state of a
// monolithic run (interval boundaries are positions in the deterministic
// dynamic stream; the last interval ends at the same halt); cycle counts and
// stall attribution carry a small warm-up approximation error, measured in
// EXPERIMENTS.md. With cfg.Period > 1 only every Period-th interval is
// simulated and the stats are extrapolated to the full stream (Stats.ScaleTo);
// retired count and final state remain exact because both come from the
// functional pass. The model must implement IntervalRunner.
func RunSampled(ctx context.Context, m Machine, p *isa.Program, image *arch.Memory, cfg SampleConfig) (*Result, error) {
	ir, ok := m.(IntervalRunner)
	if !ok {
		return nil, fmt.Errorf("sim: model %q does not support interval sampling", m.Name())
	}
	if cfg.Interval == 0 {
		return nil, fmt.Errorf("sim: sample interval must be positive")
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = cfg.Interval / 4
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The functional pass streams checkpoints as it discovers them, so
	// interval workers start detailed simulation while the fast-forward is
	// still running; its wall clock overlaps the simulation instead of
	// preceding it. Each worker owns its checkpoint and writes only its own
	// interval record, and the run keeps of a finished interval only what
	// stitching reads: its stats, its measured bounds, and — at full
	// coverage, where the last interval's state is the run's final state —
	// the state of the latest interval finished so far. A checkpoint and its
	// recording are released as its interval completes. The loop takes the
	// next checkpoint only when one of the workers is free, and the pass
	// blocks once the channel is full, so a pass that runs ahead of the
	// workers cannot pile up recordings.
	src, err := StreamCheckpoints(runCtx, p, image, cfg, ir.CheckpointSpec())
	if err != nil {
		return nil, err
	}
	full := cfg.period() == 1
	type interval struct {
		measure, end uint64
		stats        Stats
		err          error
	}
	var ivs []*interval
	var (
		lastMu  sync.Mutex
		lastIdx = -1
		last    *Result
	)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for ck := range src.C {
		i := len(ivs)
		iv := &interval{measure: ck.Measure, end: ck.End}
		ivs = append(ivs, iv)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, ck *Checkpoint) {
			defer wg.Done()
			defer func() { <-sem }()
			// A panicking interval must not kill the process: interval
			// workers run on bare goroutines, outside any server-side
			// recovery, so convert the panic to an error here.
			defer func() {
				if r := recover(); r != nil {
					iv.err = fmt.Errorf("sim: interval %d panicked: %v", i, r)
					cancel()
				}
			}()
			if err := runCtx.Err(); err != nil {
				iv.err = err
				return
			}
			res, err := ir.RunInterval(runCtx, p, image, ck)
			if err != nil {
				iv.err = err
				cancel()
				return
			}
			iv.stats = res.Stats
			if full {
				lastMu.Lock()
				if i > lastIdx {
					lastIdx, last = i, res
				}
				lastMu.Unlock()
			}
		}(i, ck)
	}
	n, finalSnap, ffDur, ferr := src.Wait()
	if ferr != nil {
		// The pass failed (or was cancelled): the run cannot produce a
		// result, so stop the in-flight workers rather than finish them.
		cancel()
	}
	wg.Wait()
	// Prefer a real failure over the cancellations it caused; the producer's
	// error is the root cause when both it and workers failed.
	errs := []error{ferr}
	for _, iv := range ivs {
		errs = append(errs, iv.err)
	}
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	stitchStart := time.Now()
	final := &Result{}
	for _, iv := range ivs {
		final.Stats.Add(&iv.stats)
	}
	if full {
		// Full coverage: the measured windows tile the stream, so the sum is
		// exact and the last interval retired the same halt as a monolithic
		// run would.
		final.RF, final.Mem = last.RF, last.Mem
		if final.Stats.Retired != n {
			return nil, fmt.Errorf("sim: stitched retired %d != stream length %d (interval accounting bug)", final.Stats.Retired, n)
		}
	} else {
		// Sparse: the simulated intervals cover only part of the stream.
		// Verify their accounting (streamed checkpoints carry an optimistic
		// End, clamped here by the now-known stream length), then
		// extrapolate to the full length and take the exact final state from
		// the functional pass.
		var measured uint64
		for _, iv := range ivs {
			measured += min(iv.end, n) - iv.measure
		}
		if final.Stats.Retired != measured {
			return nil, fmt.Errorf("sim: stitched retired %d != measured span %d (interval accounting bug)", final.Stats.Retired, measured)
		}
		final.Stats.ScaleTo(n)
		final.RF, final.Mem = finalSnap.RF, finalSnap.Mem
	}
	final.AddPhase("func_ffwd", ffDur)
	final.AddPhase("stitch", time.Since(stitchStart))
	return final, nil
}
