package bench

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// sampleTestInterval is deliberately small so every kernel splits into many
// intervals at test scale; the error bound below is calibrated for it (short
// intervals maximize the relative weight of boundary drain and warm-up
// imperfection, so production runs with larger intervals do better — see
// EXPERIMENTS.md for the measured curve).
const (
	sampleTestInterval = 20000
	sampleTestScale    = 2
	// sampleMaxCycleError bounds |stitched - monolithic| / monolithic total
	// cycles for the test configuration above.
	sampleMaxCycleError = 0.10
)

var sampleModels = []ModelName{MInorder, MRunahead, MMultipass, MOOO, MOOORealistc, MCGOoO}

// TestSampledEquivalence is the sampling contract, pinned per model: stitched
// interval simulation reproduces the monolithic run's retired count and final
// architectural state exactly, and its total cycles within the documented
// bound. Run with -race this also exercises the concurrent interval workers.
func TestSampledEquivalence(t *testing.T) {
	for _, kernel := range []string{"mcf", "art"} {
		pr := mustPrepare(t, kernel, sampleTestScale)
		for _, model := range sampleModels {
			model := model
			t.Run(kernel+"/"+string(model), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				opts := sim.ModelOptions{Hier: mem.BaseConfig()}
				mono, err := pr.RunOpts(ctx, model, opts)
				if err != nil {
					t.Fatal(err)
				}
				scfg := sim.SampleConfig{Interval: sampleTestInterval}
				sampled, err := pr.RunSampled(ctx, model, opts, scfg)
				if err != nil {
					t.Fatal(err)
				}

				if sampled.Stats.Retired != mono.Stats.Retired {
					t.Errorf("retired %d sampled vs %d monolithic", sampled.Stats.Retired, mono.Stats.Retired)
				}
				if !sampled.Snapshot().Equal(mono.Snapshot()) {
					t.Errorf("final architectural state diverged:\n  %s",
						strings.Join(sampled.Snapshot().Diff(mono.Snapshot(), 8), "\n  "))
				}
				errFrac := math.Abs(float64(sampled.Stats.Cycles)-float64(mono.Stats.Cycles)) / float64(mono.Stats.Cycles)
				if errFrac > sampleMaxCycleError {
					t.Errorf("cycle error %.2f%% (sampled %d vs monolithic %d) exceeds %.0f%%",
						100*errFrac, sampled.Stats.Cycles, mono.Stats.Cycles, 100*sampleMaxCycleError)
				}
				if err := sampled.Stats.CheckConsistency(); err != nil {
					t.Errorf("stitched stats inconsistent: %v", err)
				}
			})
		}
	}
}

// TestSampledSparseEquivalence pins the sparse (period > 1) contract: the
// exact properties survive — retired count and final architectural state come
// from the functional pass — while cycles become an extrapolation whose error
// at this deliberately tiny configuration (7 measured units) is only coarsely
// bounded. Production operating points use many more units; EXPERIMENTS.md
// records the measured errors.
func TestSampledSparseEquivalence(t *testing.T) {
	pr := mustPrepare(t, "mcf", sampleTestScale)
	for _, model := range sampleModels {
		model := model
		t.Run(string(model), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			opts := sim.ModelOptions{Hier: mem.BaseConfig()}
			mono, err := pr.RunOpts(ctx, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			scfg := sim.SampleConfig{Interval: sampleTestInterval, Period: 4}
			sampled, err := pr.RunSampled(ctx, model, opts, scfg)
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Stats.Retired != mono.Stats.Retired {
				t.Errorf("retired %d sparse vs %d monolithic", sampled.Stats.Retired, mono.Stats.Retired)
			}
			if !sampled.Snapshot().Equal(mono.Snapshot()) {
				t.Errorf("final architectural state diverged:\n  %s",
					strings.Join(sampled.Snapshot().Diff(mono.Snapshot(), 8), "\n  "))
			}
			errFrac := math.Abs(float64(sampled.Stats.Cycles)-float64(mono.Stats.Cycles)) / float64(mono.Stats.Cycles)
			if errFrac > 0.20 {
				t.Errorf("sparse cycle error %.2f%% (sampled %d vs monolithic %d) exceeds 20%%",
					100*errFrac, sampled.Stats.Cycles, mono.Stats.Cycles)
			}
			if err := sampled.Stats.CheckConsistency(); err != nil {
				t.Errorf("extrapolated stats inconsistent: %v", err)
			}
		})
	}
}

func mustPrepare(t *testing.T, kernel string, scale int) *Prepared {
	t.Helper()
	w, ok := workload.ByName(kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", kernel)
	}
	pr, err := Prepare(w, scale)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestCheckpointRoundTrip pins the checkpoint capture/restore cycle directly:
// the final checkpoint's interval, resimulated in isolation, must land on the
// same architectural state as the monolithic run — byte-identical registers
// (values and NaT bits), memory, and retired count.
func TestCheckpointRoundTrip(t *testing.T) {
	pr := mustPrepare(t, "mcf", 1)
	ctx := context.Background()
	m, err := NewMachineOpts(MInorder, sim.ModelOptions{Hier: mem.BaseConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ir, ok := m.(sim.IntervalRunner)
	if !ok {
		t.Fatal("inorder does not implement sim.IntervalRunner")
	}
	cks, n, err := drainCheckpoints(ctx, pr, sim.SampleConfig{Interval: 10000, Warmup: 2500}, ir.CheckpointSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) < 2 {
		t.Fatalf("mcf split into %d intervals, want >= 2", len(cks))
	}

	mono, err := pr.Run(ctx, MInorder, mem.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	last := cks[len(cks)-1]
	res, err := ir.RunInterval(ctx, pr.P, pr.Image, last)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Snapshot()
	want := mono.Snapshot()
	// The interval's own Retired counts only measured instructions; the
	// architectural identity check is registers and memory.
	if !got.RF.Equal(want.RF) || !got.Mem.Equal(want.Mem) {
		got.Retired = want.Retired
		t.Fatalf("resimulated final interval diverged from monolithic:\n  %s",
			strings.Join(got.Diff(want, 8), "\n  "))
	}
	if res.Stats.Retired != n-last.Measure {
		t.Fatalf("final interval retired %d, want %d (N %d - measure %d)",
			res.Stats.Retired, n-last.Measure, n, last.Measure)
	}

	// Interval accounting: measured windows tile [0, N) exactly.
	var total uint64
	for i, ck := range cks {
		start, measure, end := ck.Bounds()
		if start > measure || measure >= end {
			t.Fatalf("checkpoint %d has degenerate bounds (%d, %d, %d)", i, start, measure, end)
		}
		total += end - measure
	}
	if total != n {
		t.Fatalf("measured windows cover %d instructions, stream has %d", total, n)
	}
}

// drainCheckpoints runs the functional fast-forward to completion and
// collects its checkpoints in stream order, each End clamped to the stream
// length n.
func drainCheckpoints(ctx context.Context, pr *Prepared, cfg sim.SampleConfig, spec sim.CheckpointSpec) (cks []*sim.Checkpoint, n uint64, err error) {
	src, err := sim.StreamCheckpoints(ctx, pr.P, pr.Image, cfg, spec)
	if err != nil {
		return nil, 0, err
	}
	for ck := range src.C {
		cks = append(cks, ck)
	}
	if n, _, _, err = src.Wait(); err != nil {
		return nil, 0, err
	}
	for _, ck := range cks {
		ck.End = min(ck.End, n)
	}
	return cks, n, nil
}

// TestRunSampledValidation pins the error paths: a zero interval is a
// configuration error, not a fallback to monolithic.
func TestRunSampledValidation(t *testing.T) {
	pr := mustPrepare(t, "gzip", 1)
	_, err := pr.RunSampled(context.Background(), MInorder, sim.ModelOptions{Hier: mem.BaseConfig()}, sim.SampleConfig{})
	if err == nil {
		t.Fatal("RunSampled accepted a zero interval")
	}
}

// TestBuildCheckpointsCancel pins the fast-forward's cancellation contract:
// a cancelled context must surface promptly as the pass's error, both from
// the chunk-boundary poll (seen by a consumer draining every checkpoint) and
// from a producer blocked sending to a consumer that stopped draining.
func TestBuildCheckpointsCancel(t *testing.T) {
	pr := mustPrepare(t, "mcf", 1)
	m, err := NewMachineOpts(MInorder, sim.ModelOptions{Hier: mem.BaseConfig()})
	if err != nil {
		t.Fatal(err)
	}
	spec := m.(sim.IntervalRunner).CheckpointSpec()
	cfg := sim.SampleConfig{Interval: 5000, Warmup: 1000}

	t.Run("poll", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, _, err := drainCheckpoints(ctx, pr, cfg, spec)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("cancelled fast-forward took %s to return", d)
		}
	})

	t.Run("blocked-send", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src, err := sim.StreamCheckpoints(ctx, pr.P, pr.Image, cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Take one checkpoint, then stop draining: the producer fills the
		// channel buffer and blocks in its send. Cancellation must unblock it.
		select {
		case <-src.C:
		case <-time.After(30 * time.Second):
			t.Fatal("no checkpoint arrived")
		}
		cancel()
		done := make(chan struct{})
		go func() {
			src.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("producer did not stop after cancellation")
		}
		// The pass may have finished before the cancel landed (tiny stream);
		// either a clean finish or context.Canceled is acceptable, anything
		// else is a bug.
		if _, _, _, err := src.Wait(); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	})
}

// TestSampledPhaseFuncFFwd checks the fast-forward wall clock is reported as
// the func_ffwd phase span on sampled results (the ?debug=true trace and
// pprof label share the name).
func TestSampledPhaseFuncFFwd(t *testing.T) {
	pr := mustPrepare(t, "gzip", 1)
	res, err := pr.RunSampled(context.Background(), MInorder,
		sim.ModelOptions{Hier: mem.BaseConfig()}, sim.SampleConfig{Interval: sampleTestInterval})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ph := range res.Phases {
		if ph.Name == "func_ffwd" {
			found = ph.Dur > 0
		}
	}
	if !found {
		t.Fatalf("no func_ffwd phase with positive duration in %+v", res.Phases)
	}
}
