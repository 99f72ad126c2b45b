package bench

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"multipass/internal/arch"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// TestFuncInterpSpeedupSuite measures the superblock interpreter against the
// step-wise reference across the whole kernel suite and requires the
// geometric-mean speedup to clear 3x (mpbench's traced runs report the
// superblock interpreter's absolute rate on mcf as arch.funcinsts_per_s). It
// doubles as a differential check on real kernels: final state and counts
// must match.
//
// Methodology: the SBProgram is decoded once per kernel (the design point —
// sim builds it once and reuses it across every checkpoint interval), and
// each rep's image is a private copy decoded from the image's encoding
// before the timed window opens: a copy-on-write Clone would share every
// page, and the first write to each page would copy it on the interpreter's
// clock. A forced GC between copy and run keeps scaffolding garbage from
// being collected on either interpreter's clock. Each step-wise rep runs back
// to back with its superblock rep, so a loaded host slows both sides of a
// pair alike, and a kernel's speedup is the median of its per-pair ratios.
func TestFuncInterpSpeedupSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const pairs = 9
	logGM := 0.0
	n := 0
	for _, w := range workload.All() {
		pr, err := Prepare(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		sb := arch.NewSBProgram(pr.P)
		enc, err := pr.Image.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		timed := func(run func(*arch.Memory) (*arch.RunResult, error)) (*arch.RunResult, time.Duration) {
			img := arch.NewMemory()
			if err := img.UnmarshalBinary(enc); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			start := time.Now()
			res, err := run(img)
			d := time.Since(start)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			return res, d
		}
		var ref, got *arch.RunResult
		var ratios []float64
		var swDur, sbDur time.Duration
		for rep := 0; rep < pairs; rep++ {
			ref, swDur = timed(func(img *arch.Memory) (*arch.RunResult, error) {
				return arch.RunStepwise(pr.P, img, sim.TraceLimit)
			})
			got, sbDur = timed(func(img *arch.Memory) (*arch.RunResult, error) {
				return sb.Run(img, sim.TraceLimit)
			})
			ratios = append(ratios, float64(swDur)/float64(sbDur))
		}
		if !ref.State.RF.Equal(got.State.RF) || !ref.State.Mem.Equal(got.State.Mem) ||
			ref.State.Retired != got.State.Retired || ref.Loads != got.Loads ||
			ref.Stores != got.Stores || ref.Branches != got.Branches || ref.Taken != got.Taken {
			t.Fatalf("%s: superblock diverged from stepwise", w.Name)
		}
		sort.Float64s(ratios)
		speedup := ratios[pairs/2]
		t.Logf("%-8s %9d insts  last pair: stepwise %8s  superblock %8s  median pair %.2fx",
			w.Name, ref.State.Retired, swDur.Round(time.Microsecond), sbDur.Round(time.Microsecond), speedup)
		logGM += math.Log(speedup)
		n++
	}
	gm := math.Exp(logGM / float64(n))
	t.Logf("geomean speedup: %.2fx", gm)
	if gm < 3.0 {
		t.Errorf("geomean funcinterp speedup %.2fx < 3x target", gm)
	}
}
