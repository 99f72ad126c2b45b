// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment end to end and
// reports the headline quantities the paper reports as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation and prints the measured counterparts of the
// paper's numbers. See EXPERIMENTS.md for the paper-vs-measured table.
package multipass_test

import (
	"context"
	"testing"

	"multipass/internal/bench"
	"multipass/internal/mem"
	"multipass/internal/workload"
)

const benchScale = 1

// BenchmarkFigure6 regenerates Figure 6: normalized execution cycles for
// the in-order baseline, multipass, and ideal out-of-order machines on all
// twelve kernels. Reported metrics correspond to the paper's 49% mean stall
// reduction, 1.36x mean multipass speedup, and 1.14x ideal-OOO-over-MP.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure6(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MeanStallReduction, "stall-reduction-%")
		b.ReportMetric(r.MeanMPSpeedup, "MP-speedup-x")
		b.ReportMetric(r.MeanOOOOverMP, "OOO-over-MP-x")
	}
}

// BenchmarkFigure7 regenerates Figure 7: multipass and OOO speedups under
// the base, config1 (200-cycle memory) and config2 (smaller, slower caches)
// hierarchies. The paper's observation is that the MP/OOO gap narrows with
// the more restrictive hierarchies.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure7(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanMP["base"], "MP-base-x")
		b.ReportMetric(r.MeanMP["config2"], "MP-config2-x")
		b.ReportMetric(r.MeanOOO["base"]/r.MeanMP["base"], "gap-base-x")
		b.ReportMetric(r.MeanOOO["config2"]/r.MeanMP["config2"], "gap-config2-x")
	}
}

// BenchmarkFigure8 regenerates Figure 8: the percent of the full multipass
// speedup retained without issue regrouping and without advance restart.
// The paper's shape: restart matters for mcf, gap and bzip2; regrouping
// matters nearly everywhere except mcf.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure8(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Benchmark == "mcf" {
				b.ReportMetric(row.PctWithoutRestart, "mcf-norestart-%")
				b.ReportMetric(row.PctWithoutRegroup, "mcf-noregroup-%")
			}
			if row.Benchmark == "twolf" {
				b.ReportMetric(row.PctWithoutRegroup, "twolf-noregroup-%")
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: peak and average power ratios of the
// out-of-order structures to the multipass structures (paper: 0.99/1.20,
// 10.28/7.15, 3.21/9.79).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table1(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].PeakRatio, "regs-peak-x")
		b.ReportMetric(r.Rows[0].AvgRatio, "regs-avg-x")
		b.ReportMetric(r.Rows[1].PeakRatio, "sched-peak-x")
		b.ReportMetric(r.Rows[1].AvgRatio, "sched-avg-x")
		b.ReportMetric(r.Rows[2].PeakRatio, "lsq-peak-x")
		b.ReportMetric(r.Rows[2].AvgRatio, "lsq-avg-x")
	}
}

// BenchmarkExtras regenerates the §5.2 realistic out-of-order comparison
// (paper: multipass 1.05x faster) and the §5.4 Dundas-Mudge runahead
// comparison (paper: runahead reduces about half as many cycles).
func BenchmarkExtras(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Extras(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MPOverRealOOO, "MP-over-realOOO-x")
		b.ReportMetric(r.RunaheadCycleFraction, "runahead-fraction")
	}
}

// BenchmarkModels measures raw simulator throughput (simulated cycles per
// second) on the mcf kernel for each of the six machine models that
// mpbench's suite workload runs. The workload is compiled and pre-decoded
// once outside the measured region, so allocs/op is the models' own
// allocation behavior. It is the entry point for a CPU profile of the cycle
// loops (go test -run '^$' -bench BenchmarkModels -cpuprofile cpu.out .).
func BenchmarkModels(b *testing.B) {
	w, _ := workload.ByName("mcf")
	pr, err := bench.Prepare(w, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []bench.ModelName{
		bench.MInorder, bench.MRunahead, bench.MMultipass, bench.MOOO, bench.MOOORealistc, bench.MCGOoO,
	} {
		name := name
		b.Run(string(name), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := pr.Run(context.Background(), name, mem.BaseConfig())
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
			b.ReportMetric(float64(b.N), "runs")
		})
	}
}

// BenchmarkWorkloads measures each kernel once on the multipass machine,
// reporting its simulated IPC, as a per-kernel smoke benchmark.
func BenchmarkWorkloads(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(context.Background(), bench.MMultipass, w, benchScale, mem.BaseConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.IPC(), "IPC")
			}
		})
	}
}

// BenchmarkRestartStudy runs the §3.3 footnote-1 comparison of compiler-
// directed and hardware-heuristic advance restart on the restart-sensitive
// kernels.
func BenchmarkRestartStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RestartStudy(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Benchmark == "mcf" {
				b.ReportMetric(row.Compiler, "mcf-compiler-x")
				b.ReportMetric(row.Hardware, "mcf-hardware-x")
				b.ReportMetric(row.NoRestart, "mcf-none-x")
			}
		}
	}
}

// BenchmarkSweepIQ measures multipass sensitivity to the instruction-queue
// size around the paper's 256-entry choice.
func BenchmarkSweepIQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.SweepIQ(context.Background(), benchScale, []int{24, 256})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range r.Points {
			if pt.Benchmark == "equake" {
				switch pt.Size {
				case 24:
					b.ReportMetric(pt.Speedup, "equake-iq24-x")
				case 256:
					b.ReportMetric(pt.Speedup, "equake-iq256-x")
				}
			}
		}
	}
}

// BenchmarkSweepASC measures multipass sensitivity to the advance store
// cache size around the paper's 64-entry choice.
func BenchmarkSweepASC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.SweepASC(context.Background(), benchScale, []int{8, 64})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range r.Points {
			if pt.Benchmark == "mcf" && pt.Size == 64 {
				b.ReportMetric(pt.Speedup, "mcf-asc64-x")
			}
		}
	}
}
