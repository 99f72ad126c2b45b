package bench

import (
	"context"
	"testing"

	"multipass/internal/mem"
	"multipass/internal/workload"
)

// Per-model allocation budgets for one mcf run at scale 1 over a shared
// pre-decoded trace. The budgets are per-RUN setup costs — machine
// construction, the value-simulating models' own-memory image (one object
// per page they write), the cache hierarchy — with headroom; the cycle loops
// themselves must be allocation-free in steady state, which the allocs/cycle
// bound below enforces directly. Measured values at the time of writing:
// inorder 20, runahead 1996, multipass 1996, ooo 29, ooo-realistic 26,
// cgooo 28 allocs/run.
var allocBudgets = []struct {
	model  ModelName
	budget float64 // max allocations per run
}{
	{MInorder, 200},
	{MRunahead, 4500},
	{MMultipass, 4500},
	{MOOO, 200},
	{MOOORealistc, 200},
	{MCGOoO, 200},
}

// maxAllocsPerCycle is the steady-state bound: a model that allocates on its
// cycle path would show orders of magnitude more than this (mcf at scale 1
// runs >1M cycles, so even one allocation per 100 cycles trips it).
const maxAllocsPerCycle = 0.01

// TestAllocationBudgets pins the per-run allocation count of every model and
// requires an effectively zero allocs/cycle rate, so an allocation slipped
// into a cycle loop fails loudly rather than silently costing throughput.
func TestAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model simulation in -short mode")
	}
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf workload missing")
	}
	pr, err := Prepare(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Tr == nil {
		t.Fatal("mcf at scale 1 should pre-decode within the trace limit")
	}
	for _, tc := range allocBudgets {
		tc := tc
		t.Run(string(tc.model), func(t *testing.T) {
			var cycles uint64
			allocs := testing.AllocsPerRun(1, func() {
				res, err := pr.Run(context.Background(), tc.model, mem.BaseConfig())
				if err != nil {
					t.Fatal(err)
				}
				cycles = res.Stats.Cycles
			})
			t.Logf("%s: %.0f allocs/run", tc.model, allocs)
			if allocs > tc.budget {
				t.Errorf("%s: %.0f allocs/run, budget %.0f", tc.model, allocs, tc.budget)
			}
			if cycles == 0 {
				t.Fatal("no cycles simulated")
			}
			if perCycle := allocs / float64(cycles); perCycle > maxAllocsPerCycle {
				t.Errorf("%s: %.4f allocs/cycle over %d cycles, want < %.2f (steady-state zero)",
					tc.model, perCycle, cycles, maxAllocsPerCycle)
			}
		})
	}
}
