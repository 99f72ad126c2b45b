// Command mpbench is the repository's benchmark. It runs one of four
// workloads against the simulator, checks every output for correctness,
// and prints end-to-end metrics (untraced run) or per-layer metrics
// (traced run, -trace 1) by name with their units. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.29, "unit": "s"}, ...}}
//
// Run it from the root of a checkout through run.sh, which builds it first:
//
//	bash cmd/mpbench/run.sh -workload suite -seed 1 -seconds 20 -trace 0
//	bash cmd/mpbench/run.sh -seed 1                       # every workload
//	bash cmd/mpbench/run.sh -compare old.jsonl new.jsonl  # records written by -out
//
// BENCHMARK.json at the repository root declares the workloads, metrics and
// regression bounds; README.md explains each of them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"multipass/internal/workload"
)

// env is what the workloads and probes of one invocation share.
type env struct {
	seed    int64
	size    size
	goldens *goldens
	ref     reference
	host    *hostMeter
}

// size sets how much work one invocation does. The benchmark always runs
// at full size; the smoke tests run at tiny size.
type size struct {
	kernels  []workload.Workload // kernels of suite, service and fabric-sweep
	mcfScale int                 // mcf scale of sampled-mcf and its probes
	setups   int                 // set-ups per run; setup_s is their median
	probeN   int                 // calls per microbenchmark repetition
}

func fullSize() size {
	return size{kernels: workload.All(), mcfScale: 128, setups: 5, probeN: 200_000}
}

// measurement is what one measured window of a workload observed.
type measurement struct {
	lat    []time.Duration // host latency of each attempted operation
	segs   []segment       // throughput samples
	failed int             // operations that errored or returned a wrong result
	errs   []string        // the first few failures, for the report
	note   string          // one workload-specific line for the report
}

// segment is one throughput sample of a window: a suite pass, a sampled
// run, a service session or a sweep.
type segment struct {
	cycles uint64 // simulated cycles of results computed (not replayed from a cache)
	host   time.Duration
}

// fastQuartile is where the end-to-end metrics read a run's samples. A
// shared host only ever slows the simulator down, in stretches of ten to
// twenty seconds, so the fast quartile of a run's samples is steadier from
// run to run than their median: latencies are read at the 25th percentile
// and rates at the 75th.
const fastQuartile = 0.25

// rate returns the fast-quartile simulated cycles per host second over the
// segments, and the segments' totals.
func (m *measurement) rate() (cyclesPerS float64, total segment) {
	var cycles []float64
	for _, s := range m.segs {
		cycles = append(cycles, float64(s.cycles)/s.host.Seconds())
		total.cycles += s.cycles
		total.host += s.host
	}
	return quantile(cycles, 1-fastQuartile), total
}

func (m *measurement) fail(err error) {
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// instance is one set-up copy of a workload.
type instance interface {
	// warm runs untimed operations so lazy state settles before measuring.
	warm(ctx context.Context) error
	// measure runs operations until the deadline (at least one) and checks
	// their outputs.
	measure(ctx context.Context, deadline time.Time, tr *tracer) *measurement
	close()
}

// benchWorkload is one workload of BENCHMARK.json; README.md gives the
// reason for each.
type benchWorkload struct {
	name  string
	setup func(e *env, tr *tracer) (instance, error)
}

var benchWorkloads = []benchWorkload{
	{"suite", setupSuite},
	{"sampled-mcf", setupSampled},
	{"service", setupService},
	{"fabric-sweep", setupFabric},
}

// loop runs op once, then again while one more run as long as the last
// would still end by the deadline, so a window ends on a whole operation.
// Between operations it samples the host's speed.
func (e *env) loop(deadline time.Time, op func()) {
	for {
		e.host.between()
		start := time.Now()
		op()
		if time.Now().Add(time.Since(start)).After(deadline) {
			return
		}
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the final output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record is one run as appended to the -out file, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	name := flag.String("workload", "all", `workload to run: suite, sampled-mcf, service, fabric-sweep, or "all"`)
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "host seconds each run measures for")
	trace := flag.Int("trace", 0, "1: traced run, reporting per-layer metrics instead of end-to-end ones (spans go to .bench_build/mpbench-trace/)")
	out := flag.String("out", "", "append each run's record (workload, seed, result) to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two -out files (positional: old new) against BENCHMARK.json's bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two files: old new")
		}
		regressed, err := runCompare(os.Stdout, ".", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}

	var selected []benchWorkload
	for _, w := range benchWorkloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatalf("unknown workload %q", *name)
	}

	e, err := newEnv(".", *seed, fullSize())
	if err != nil {
		fatalf("%v", err)
	}
	traceDir := filepath.Join(".bench_build", "mpbench-trace")
	printHost(os.Stdout)
	correct := true
	for _, w := range selected {
		res, err := runWorkload(context.Background(), os.Stdout, e, w, *seconds, *trace == 1, traceDir)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if *out != "" {
			if err := appendRecord(*out, record{w.name, *seed, *trace, *res}); err != nil {
				fatalf("%v", err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpbench: "+format+"\n", args...)
	os.Exit(1)
}

// newEnv loads what every workload checks against; root is the checkout
// root, which holds the goldens.
func newEnv(root string, seed int64, sz size) (*env, error) {
	g, err := loadGoldens(root, kernelNames(sz.kernels))
	if err != nil {
		return nil, err
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, size: sz, goldens: g, ref: ref, host: newHostMeter()}, nil
}

// runWorkload sets the workload up several times, warms the last copy, and
// measures it: untraced for the end-to-end metrics, or traced for the
// per-layer ones.
func runWorkload(ctx context.Context, w io.Writer, e *env, bw benchWorkload, seconds float64, traced bool, traceDir string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	fmt.Fprintf(w, "== %s (seed %d, %.0f s, trace %t)\n", bw.name, e.seed, seconds, traced)

	var inst instance
	var setups []float64
	e.host.reset()
	for i := 0; i < e.size.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Each set-up starts from a collected heap, so none pays for
		// collecting the garbage of the one before.
		runtime.GC()
		e.host.sample()
		start := time.Now()
		var err error
		inst, err = bw.setup(e, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(w, "set-up: median %.3f s host over %d set-ups\n", median(setups), len(setups))
	if err := inst.warm(ctx); err != nil {
		return nil, err
	}
	runtime.GC()

	window := time.Duration(seconds * float64(time.Second))
	metrics := make(metricSet)
	var ms []*measurement
	if !traced {
		heap := startHeapSampler()
		m := inst.measure(ctx, time.Now().Add(window), nil)
		peak := heap.finish()
		e.host.sample()
		report(w, m)
		cyclesPerS, _ := m.rate()
		p25 := quantile(millis(m.lat), fastQuartile)
		slow := e.host.slowdown()
		fmt.Fprintf(w, "host speed: reference kernel median %.2f ms over %d samples, %.3fx its %v on the calibration host\n",
			1e3*median(e.host.samples), len(e.host.samples), slow, refNominal)
		fmt.Fprintf(w, "unscaled: setup %.4f s, op p25 %.4f ms, %.4g simcycles/s; the metrics below are scaled to the calibration host's speed\n",
			median(setups), p25, cyclesPerS)
		metrics.set("setup_s", "s", median(setups)/slow)
		metrics.set("op_p25_ms", "ms", p25/slow)
		metrics.set("simcycles_per_s", "cycles/s", cyclesPerS*slow)
		metrics.set("peak_heap_mb", "MiB", float64(peak)/(1<<20))
		ms = append(ms, m)
	} else {
		// Untraced and traced operations alternate one by one for half the
		// window. Each pair runs back to back, so host drift touches both
		// alike; the median pair's time ratio is the tracing overhead.
		var ratios []float64
		deadline := time.Now().Add(window / 2)
		for first := true; first || time.Now().Before(deadline); first = false {
			var host [2]float64
			for i, t := range []*tracer{nil, tr} {
				m := inst.measure(ctx, time.Now(), t) // one operation
				_, total := m.rate()
				host[i] = total.host.Seconds()
				ms = append(ms, m)
			}
			ratios = append(ratios, host[1]/host[0])
		}
		fmt.Fprintf(w, "tracing overhead: %d pairs of an untraced and a traced operation\n", len(ratios))
		metrics.set("trace.overhead_pct", "%", 100*(median(ratios)-1))
		if err := runProbes(ctx, e, tr, metrics); err != nil {
			return nil, err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", bw.name, e.seed))
		if err := tr.write(path, bw.name, e.seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %s\n", path)
		for _, lt := range tr.summary() {
			fmt.Fprintf(w, "  %-36s %6d spans %12.1f ms total %12.1f ms self\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
		}
	}

	res := &result{Metrics: metrics}
	for _, m := range ms {
		res.Attempted += len(m.lat)
		res.Failed += m.failed
		for _, e := range m.errs {
			fmt.Fprintf(w, "  FAILED: %s\n", e)
		}
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return res, nil
}

// report prints one measured window in human terms.
func report(w io.Writer, m *measurement) {
	lat := millis(m.lat)
	_, total := m.rate()
	fmt.Fprintf(w, "measured: %d operations in %.2f s host, %d failed\n", len(lat), total.host.Seconds(), m.failed)
	fmt.Fprintf(w, "latency (host): p25 %.3f ms, p50 %.3f ms", quantile(lat, 0.25), quantile(lat, 0.5))
	if idx, pct, ok := tailIndex(len(lat)); ok {
		fmt.Fprintf(w, ", p%.1f %.3f ms (the highest percentile with 10 samples beyond it)", pct, sorted(lat)[idx])
	}
	fmt.Fprintf(w, ", n=%d\n", len(lat))
	fmt.Fprintf(w, "simulated: %d cycles (sim time) computed in %.2f s (host time), %d throughput samples\n",
		total.cycles, total.host.Seconds(), len(m.segs))
	if m.note != "" {
		fmt.Fprintln(w, m.note)
	}
}

// printHost records the host the numbers come from. The models have no
// hardware reference, so no number here is an accuracy figure.
func printHost(w io.Writer) {
	procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	fmt.Fprintf(w, "host: %s %s/%s, GOMAXPROCS=%d, NumCPU=%d, cpu=%q\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, procs, cpus, cpuModel())
	if procs != cpus {
		fmt.Fprintf(os.Stderr, "mpbench: warning: GOMAXPROCS=%d differs from the %d CPUs; numbers are not comparable with runs at GOMAXPROCS=nproc\n", procs, cpus)
	}
	fmt.Fprintln(w, "note: the timing models are unvalidated (no hardware reference); monolithic runs start with empty modelled caches; the only accuracy figure is sampled-vs-monolithic error")
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "" elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func appendRecord(path string, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
