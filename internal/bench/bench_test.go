package bench

import (
	"context"
	"strings"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

func TestNewMachineAllModels(t *testing.T) {
	for _, n := range []ModelName{MInorder, MMultipass, MNoRegroup, MNoRestart, MRunahead, MOOO, MOOORealistc, MCGOoO} {
		m, err := NewMachine(n, mem.BaseConfig())
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if m.Name() == "" {
			t.Errorf("%s: empty name", n)
		}
	}
	if _, err := NewMachine("bogus", mem.BaseConfig()); err == nil {
		t.Error("bogus model accepted")
	}
}

func TestRunSingle(t *testing.T) {
	w, _ := workload.ByName("crafty")
	res, err := Run(context.Background(), MInorder, w, 1, mem.BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles == 0 || res.Stats.Retired == 0 {
		t.Error("degenerate run")
	}
}

// TestModelOrderingOnMCF is the repository's headline shape check at unit
// scale: on the worst-cache-behaviour kernel, cycles must order
// OOO <= multipass <= runahead <= inorder, and every model must retire the
// same instruction count.
func TestModelOrderingOnMCF(t *testing.T) {
	w, _ := workload.ByName("mcf")
	results := map[ModelName]*sim.Result{}
	for _, n := range []ModelName{MInorder, MMultipass, MRunahead, MOOO} {
		res, err := Run(context.Background(), n, w, 1, mem.BaseConfig())
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		results[n] = res
	}
	retired := results[MInorder].Stats.Retired
	for n, r := range results {
		if r.Stats.Retired != retired {
			t.Errorf("%s retired %d, inorder retired %d", n, r.Stats.Retired, retired)
		}
	}
	in := results[MInorder].Stats.Cycles
	mp := results[MMultipass].Stats.Cycles
	ra := results[MRunahead].Stats.Cycles
	oo := results[MOOO].Stats.Cycles
	if !(oo <= mp && mp <= ra && ra <= in) {
		t.Errorf("cycle ordering violated: ooo=%d mp=%d runahead=%d inorder=%d", oo, mp, ra, in)
	}
	if mp >= in {
		t.Error("multipass did not beat in-order on mcf")
	}
}

// All models agree on final architectural state for every workload (the
// whole-suite equivalence check).
func TestAllModelsEquivalentOnAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("long equivalence sweep")
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var ref *sim.Result
			for _, n := range []ModelName{MInorder, MMultipass, MRunahead, MOOO} {
				res, err := Run(context.Background(), n, w, 1, mem.BaseConfig())
				if err != nil {
					t.Fatalf("%s: %v", n, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Stats.Retired != ref.Stats.Retired {
					t.Errorf("%s retired %d, want %d", n, res.Stats.Retired, ref.Stats.Retired)
				}
				if !res.RF.Equal(ref.RF) {
					t.Errorf("%s register state diverged: %v", n, res.RF.Diff(ref.RF))
				}
				if !res.Mem.Equal(ref.Mem) {
					t.Errorf("%s memory state diverged", n)
				}
			}
		})
	}
}

// TestSquashedHaltAllModels runs a program whose first halt is predicated
// off on every registered model: a halt retires the run only when its
// predicate is true, so each model must retire the whole stream and reach
// the oracle's final state.
func TestSquashedHaltAllModels(t *testing.T) {
	p := isa.MustAssemble(`
	movi r1 = 1
	cmpi.eq p1, p2 = r1, 99 ;;
	(p1) halt
	addi r2 = r2, 5
	halt
`)
	ref, err := arch.RunStepwise(p, arch.NewMemory(), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range sim.Names() {
		m, err := sim.NewMachine(model, sim.ModelOptions{Hier: mem.BaseConfig()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(context.Background(), p, arch.NewMemory())
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if res.Stats.Retired != ref.State.Retired || !res.RF.Equal(ref.State.RF) {
			t.Errorf("%s: retired %d with r2 = %d, want %d with r2 = %d", model, res.Stats.Retired,
				res.RF.Read(isa.IntReg(2)).Uint32(), ref.State.Retired, ref.State.RF.Read(isa.IntReg(2)).Uint32())
		}
	}
}

func TestFigure6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model sweep")
	}
	r, err := Figure6(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.MeanMPSpeedup <= 1.0 {
		t.Errorf("mean MP speedup = %.2f, must exceed 1", r.MeanMPSpeedup)
	}
	if r.MeanOOOOverMP < 1.0 {
		t.Errorf("ideal OOO (%.2f) should be at least as fast as MP on average", r.MeanOOOOverMP)
	}
	if r.MeanStallReduction <= 0 {
		t.Errorf("mean stall reduction = %.2f", r.MeanStallReduction)
	}
	out := r.Render()
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "paper") {
		t.Error("render missing content")
	}
}

func TestFigure8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model sweep")
	}
	r, err := Figure8(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var mcfRow *Fig8Row
	for i := range r.Rows {
		if r.Rows[i].Benchmark == "mcf" {
			mcfRow = &r.Rows[i]
		}
	}
	if mcfRow == nil {
		t.Fatal("no mcf row")
	}
	// mcf is restart-dominated: removing restart must cost it noticeably.
	if mcfRow.PctWithoutRestart > 95 {
		t.Errorf("mcf keeps %.0f%% of its speedup without restart; expected a visible loss", mcfRow.PctWithoutRestart)
	}
	_ = r.Render()
}

func TestTable1SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model sweep")
	}
	r, err := Table1(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[1].PeakRatio < 4 {
		t.Errorf("scheduling peak ratio = %.2f, want >> 1", r.Rows[1].PeakRatio)
	}
	if r.Rows[2].PeakRatio <= 1 {
		t.Errorf("memory-ordering peak ratio = %.2f, want > 1", r.Rows[2].PeakRatio)
	}
	_ = r.Render()
}
