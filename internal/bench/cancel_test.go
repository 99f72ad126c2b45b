package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"multipass/internal/compile"
	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// TestRegistryListsEvaluationModels: every model the harness names must be
// registered, and the registry must not have lost the bogus-name error.
func TestRegistryListsEvaluationModels(t *testing.T) {
	want := []string{
		"cgooo", "inorder", "multipass", "multipass-noregroup",
		"multipass-norestart", "ooo", "ooo-realistic", "runahead",
	}
	have := map[string]bool{}
	for _, n := range sim.Names() {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("model %q not registered (have %v)", n, sim.Names())
		}
	}
}

// TestCancellationAllModels: a pre-canceled context stops every registered
// model before it simulates anything, and the returned error reports the
// cancellation under the model's registered name.
func TestCancellationAllModels(t *testing.T) {
	w, _ := workload.ByName("mcf")
	p, image, err := workload.Program(w, 1, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range sim.Names() {
		m, err := sim.NewMachine(name, sim.ModelOptions{Hier: mem.BaseConfig()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		start := time.Now()
		res, err := m.Run(ctx, p, image)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		} else if !strings.HasPrefix(err.Error(), name+": ") {
			t.Errorf("%s: err = %q, want it prefixed with the model name", name, err)
		}
		if res != nil {
			t.Errorf("%s: returned a result after cancellation", name)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("%s: took %v to notice a pre-canceled context", name, el)
		}
	}
}

// TestDeadlineMidRun: a deadline expiring mid-simulation aborts every
// registered model promptly (well within one progress window) with
// DeadlineExceeded while it ticks every cycle, idle-cycle skipping off.
func TestDeadlineMidRun(t *testing.T) {
	checkDeadlineMidRun(t, true)
}

// TestCancellationDuringSkip: the same deadline with idle-cycle skipping on.
// mcf is stall-dominated, the worst case for cancellation latency with
// skipping on, since most simulated time passes inside jumps; a jump never
// crosses a context-poll boundary, so the bound is the same as the ticking
// path's.
func TestCancellationDuringSkip(t *testing.T) {
	checkDeadlineMidRun(t, false)
}

// checkDeadlineMidRun runs every registered model on mcf under a 1 ms
// deadline and checks that each run stops with DeadlineExceeded in well
// under the time the full run takes.
func checkDeadlineMidRun(t *testing.T, disableSkip bool) {
	t.Helper()
	w, _ := workload.ByName("mcf")
	p, image, err := workload.Program(w, 8, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sim.Names() {
		m, err := sim.NewMachine(name, sim.ModelOptions{Hier: mem.BaseConfig(), DisableSkip: disableSkip})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		start := time.Now()
		_, err = m.Run(ctx, p, image)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s (DisableSkip=%v): err = %v, want context.DeadlineExceeded", name, disableSkip, err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("%s (DisableSkip=%v): took %v to honor the deadline", name, disableSkip, el)
		}
	}
}

// TestMaxInstsOverride: the registry's ModelOptions.MaxInsts override
// truncates a run of every registered model instead of using the model
// default.
func TestMaxInstsOverride(t *testing.T) {
	w, _ := workload.ByName("crafty")
	p, image, err := workload.Program(w, 1, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sim.Names() {
		m, err := sim.NewMachine(name, sim.ModelOptions{Hier: mem.BaseConfig(), MaxInsts: 100})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := m.Run(context.Background(), p, image); err == nil {
			t.Errorf("%s: run with a 100-instruction cap completed; expected a truncation error", name)
		}
	}
}
