package bench

import (
	"context"
	"testing"

	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// TestSkipOffEquivalence runs every timing model on every kernel twice — idle-
// cycle fast-forwarding on (the default) and off (DisableSkip) — and asserts
// the two runs are indistinguishable: identical sim.Stats (cycle counts, stall
// breakdown, model counters, cache stats) and identical architectural
// snapshots. This is the escape-hatch contract: -skip=off must be purely a
// performance knob, never a semantics knob.
func TestSkipOffEquivalence(t *testing.T) {
	for _, model := range goldenModels {
		for _, kernel := range goldenKernels {
			model, kernel := model, kernel
			t.Run(string(model)+"/"+kernel, func(t *testing.T) {
				t.Parallel()
				w, ok := workload.ByName(kernel)
				if !ok {
					t.Fatalf("unknown kernel %q", kernel)
				}
				pr, err := Prepare(w, goldenScale)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				on, err := pr.RunOpts(ctx, model, sim.ModelOptions{Hier: mem.BaseConfig()})
				if err != nil {
					t.Fatal(err)
				}
				off, err := pr.RunOpts(ctx, model, sim.ModelOptions{Hier: mem.BaseConfig(), DisableSkip: true})
				if err != nil {
					t.Fatal(err)
				}
				if on.Stats != off.Stats {
					t.Errorf("stats differ between skip on and off:\n  on: %+v\n off: %+v", on.Stats, off.Stats)
				}
				sOn, sOff := on.Snapshot(), off.Snapshot()
				if !sOn.Equal(sOff) {
					t.Errorf("snapshots differ between skip on and off: %v", sOn.Diff(sOff, 8))
				}
			})
		}
	}
}
