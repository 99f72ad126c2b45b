package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/bpred"
	"multipass/internal/isa"
	"multipass/internal/mem"
)

// fakePipe is a scripted pipeline: step decides what each cycle reports. It
// counts the cycles it was stepped and the repeats credited to it.
type fakePipe struct {
	Run
	head     uint64
	steps    uint64
	credited uint64
	step     func(f *fakePipe) Cycle
}

func (f *fakePipe) Head() uint64 { return f.head }

func (f *fakePipe) Step() (Cycle, error) {
	f.steps++
	return f.step(f), nil
}

func (f *fakePipe) Credit(n uint64) { f.credited += n }

var fakeProg = isa.MustAssemble("\thalt\n")

// runFake drives a fake pipeline through the Model shell, from ck when it
// is non-nil, and returns the fake for inspection.
func runFake(t *testing.T, ctx context.Context, disableSkip bool, ck *Checkpoint, step func(*fakePipe) Cycle) (*Result, *fakePipe, error) {
	t.Helper()
	cfg := Default()
	cfg.DisableSkip = disableSkip
	var f *fakePipe
	m, err := NewModel("fake", cfg, false, cfg.BufferSize, func(r Run) Pipeline {
		f = &fakePipe{Run: r, head: r.Start, step: step}
		return f
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunInterval(ctx, fakeProg, arch.NewMemory(), ck)
	return res, f, err
}

// TestDriveWatchdog: a pipeline that never reports progress is declared
// wedged just past the progress window, under the model's name.
func TestDriveWatchdog(t *testing.T) {
	for _, disable := range []bool{false, true} {
		_, f, err := runFake(t, context.Background(), disable, nil, func(f *fakePipe) Cycle {
			// Stop well past the window, so a missing watchdog fails the
			// test instead of hanging it.
			if f.Now >= 3*progressWindow {
				return Cycle{Cat: StallOther, Done: true}
			}
			f.Skip.Note(f.Now + progressWindow)
			return Cycle{Cat: StallOther, Idle: true}
		})
		if err == nil || !strings.HasPrefix(err.Error(), "fake: no progress") {
			t.Fatalf("DisableSkip=%v: err = %v, want a fake: no progress error", disable, err)
		}
		if f.Now <= progressWindow || f.Now > progressWindow+ctxPollMask+1 {
			t.Errorf("DisableSkip=%v: watchdog fired at cycle %d, want just past %d", disable, f.Now, progressWindow)
		}
	}
}

// TestDriveCancellationSameCycle: a cancellation raised by the pipeline is
// observed on the same cycle, the next poll boundary, with skipping on and
// off.
func TestDriveCancellationSameCycle(t *testing.T) {
	const every, cancelAt = 3000, 6000
	var at, steps [2]uint64
	for i, disable := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		_, f, err := runFake(t, ctx, disable, nil, func(f *fakePipe) Cycle {
			if f.Now%every != 0 {
				f.Skip.Note(f.Now + every - f.Now%every)
				return Cycle{Cat: StallLoad, Idle: true}
			}
			if f.Now == cancelAt {
				cancel()
			}
			return Cycle{Cat: StallExecution, Progress: true}
		})
		cancel()
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "fake: ") {
			t.Fatalf("DisableSkip=%v: err = %v, want fake: context canceled", disable, err)
		}
		at[i], steps[i] = f.Now, f.steps
	}
	if want := uint64(cancelAt|ctxPollMask) + 1; at[0] != want || at[1] != want {
		t.Errorf("cancellation observed at cycle %d (skip on) and %d (skip off), want both %d", at[0], at[1], want)
	}
	if steps[0] >= steps[1] {
		t.Errorf("skip on stepped %d cycles, skip off %d: nothing was skipped", steps[0], steps[1])
	}
}

// TestDriveIntervalWindow: a pipeline retiring through a checkpoint's
// [start, measure, end) window reports exactly the measured region. The cut
// stops the last warm-up burst on the measure boundary, and the warm-up
// cycles, model counters, predictor and cache activity are discarded.
func TestDriveIntervalWindow(t *testing.T) {
	const start, measure, end = 101, 300, 500
	cfg := Default()
	ck := &Checkpoint{
		Seq: start, Measure: measure, End: end,
		RF: arch.NewRegFile(), Mem: arch.NewMemory(),
		Caches: mem.MustNewHierarchy(cfg.Hier).CaptureWarm(),
		Pred:   bpred.New(cfg.PredictorEntries).CaptureWarm(),
	}
	res, _, err := runFake(t, context.Background(), false, ck, func(f *fakePipe) Cycle {
		for i := 0; i < 4 && f.head < f.Cut(); i++ {
			f.head++
			f.Stats.Retired++
		}
		f.Stats.Multipass.Merged++
		f.Pred.Update(0x40, true)
		f.Hier.AccessData(0x1000, f.Now, false, false)
		return Cycle{Cat: StallExecution, Progress: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Stats
	if st.Retired != end-measure {
		t.Errorf("retired %d, want end-measure = %d", st.Retired, end-measure)
	}
	// Four a cycle: the 200 measured sequences take 50 cycles, and each of
	// the per-cycle counters must count those cycles only.
	const cycles = (end - measure) / 4
	for name, got := range map[string]uint64{
		"Cycles":              st.Cycles,
		"Cat[StallExecution]": st.Cat[StallExecution],
		"Multipass.Merged":    st.Multipass.Merged,
		"Branch.Lookups":      st.Branch.Lookups,
		"Memory.L1D.Accesses": st.Memory.L1D.Accesses,
		"sum of Cat":          st.Cat[StallExecution] + st.Cat[StallLoad] + st.Cat[StallOther] + st.Cat[StallFrontEnd],
	} {
		if got != cycles {
			t.Errorf("%s = %d, want %d (warm-up not discarded?)", name, got, cycles)
		}
	}
}

// TestDriveSkipCredit: bulk-credited repeats land in the category the idle
// cycle charged, the categories sum to Cycles, Credit receives exactly the
// skipped count, and the statistics equal those of ticking every cycle.
func TestDriveSkipCredit(t *testing.T) {
	const every, halt = 100, 10_000
	var stats [2]Stats
	for i, disable := range []bool{false, true} {
		var idle, work uint64
		res, f, err := runFake(t, context.Background(), disable, nil, func(f *fakePipe) Cycle {
			if f.Now == halt {
				return Cycle{Cat: StallExecution, Done: true}
			}
			if f.Now%every != 0 {
				idle++
				f.Skip.Note(f.Now + every - f.Now%every)
				return Cycle{Cat: StallLoad, Idle: true}
			}
			work++
			f.head++
			return Cycle{Cat: StallExecution, Progress: true}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Cycles != halt+1 || st.Cycles != f.steps+f.credited {
			t.Errorf("DisableSkip=%v: Cycles = %d, want %d = %d steps + %d credited", disable, st.Cycles, halt+1, f.steps, f.credited)
		}
		if st.Cat[StallLoad] != idle+f.credited {
			t.Errorf("DisableSkip=%v: load stalls %d, want %d idle steps + %d credited", disable, st.Cat[StallLoad], idle, f.credited)
		}
		if st.Cat[StallExecution] != work+1 {
			t.Errorf("DisableSkip=%v: execution cycles %d, want %d", disable, st.Cat[StallExecution], work+1)
		}
		if err := st.CheckConsistency(); err != nil {
			t.Error(err)
		}
		if skipped := f.credited != 0; skipped == disable {
			t.Errorf("DisableSkip=%v: credited %d repeats", disable, f.credited)
		}
		stats[i] = st
	}
	if stats[0] != stats[1] {
		t.Errorf("stats differ between skip on and off:\n  on: %+v\n off: %+v", stats[0], stats[1])
	}
}
