package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"multipass/internal/bench"
	"multipass/internal/mem"
	"multipass/internal/server"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// testRoot is the checkout root as seen from this package's directory,
// where go test runs.
const testRoot = "../.."

// tinySize runs every workload and probe in seconds, for the smoke tests.
func tinySize(t *testing.T) size {
	var ws []workload.Workload
	for _, n := range []string{"crafty", "mesa"} {
		w, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("no kernel %q", n)
		}
		ws = append(ws, w)
	}
	return size{kernels: ws, mcfScale: 4, setups: 1, probeN: 2000}
}

func TestQuantiles(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	if q := quantile([]float64{0, 10}, 0.9); !near(q, 9) {
		t.Errorf("p90 of {0,10} = %v, want 9", q)
	}
	// Reference values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7, 7, 7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailIndex(t *testing.T) {
	for n := 0; n <= 21; n++ {
		if _, _, ok := tailIndex(n); ok {
			t.Errorf("tailIndex(%d) ok; a tail above the median needs more than 21 samples", n)
		}
	}
	for n := 22; n <= 3000; n++ {
		idx, pct, ok := tailIndex(n)
		if !ok || n-1-idx != 10 || 2*idx <= n-1 {
			t.Fatalf("tailIndex(%d) = %d, %v: want exactly 10 samples beyond, above the median", n, idx, ok)
		}
		if want := 100 * float64(idx) / float64(n-1); pct != want {
			t.Fatalf("tailIndex(%d) percentile %v, want %v", n, pct, want)
		}
	}
	if _, pct, _ := tailIndex(1001); pct != 99 {
		t.Errorf("1001 samples: tail percentile %v, want 99", pct)
	}
}

func draw(seed int64, n int) []session {
	gen := newSessions(seed, kernelNames(workload.All()))
	out := make([]session, n)
	for i := range out {
		out[i] = gen.next()
	}
	return out
}

func TestSessionsDeterministic(t *testing.T) {
	a := draw(1, 50)
	if !reflect.DeepEqual(a, draw(1, 50)) {
		t.Fatal("one seed gave two session sequences")
	}
	if reflect.DeepEqual(a, draw(2, 50)) {
		t.Fatal("two seeds gave the same session sequence")
	}
}

// TestSessionsShape pins what the service workload relies on: every
// session's sweep is the documented models x hierarchies grid over every
// kernel, its cache keys are new (no earlier session and no set-up request
// used its cap), and its re-runs cover its grid exactly once.
func TestSessionsShape(t *testing.T) {
	kernels := kernelNames(workload.All())
	caps := map[uint64]bool{setupInsts: true}
	for i, s := range draw(7, 200) {
		sw := s.sweep
		if caps[sw.MaxInsts] || sw.MaxInsts <= setupInsts {
			t.Fatalf("session %d: cap %d is not new", i, sw.MaxInsts)
		}
		caps[sw.MaxInsts] = true
		if !reflect.DeepEqual(sw.Models, sessionModels) || !reflect.DeepEqual(sw.Hiers, mem.ConfigNames()) ||
			!reflect.DeepEqual(sortedStrings(sw.Workloads), sortedStrings(kernels)) {
			t.Fatalf("session %d: grid %v x %v x %v", i, sw.Workloads, sw.Models, sw.Hiers)
		}
		seen := make(map[server.RunRequest]bool)
		for _, r := range s.runs {
			if r.MaxInsts != sw.MaxInsts || seen[r] {
				t.Fatalf("session %d: re-run %+v repeats a cell or leaves the sweep's cap", i, r)
			}
			seen[r] = true
		}
		if want := len(kernels) * len(sessionModels) * len(sw.Hiers); len(seen) != want {
			t.Fatalf("session %d: %d re-runs, grid has %d cells", i, len(seen), want)
		}
	}
}

func sortedStrings(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

// TestFreshLimitAboveKernelLength pins the premise that makes fresh and
// set-up jobs golden-identical: every instruction cap the benchmark sends
// is above every scale-1 kernel's dynamic length, so no cap ever fires.
func TestFreshLimitAboveKernelLength(t *testing.T) {
	const lowestCap = freshBase / 2 // the probes' caps start here
	for _, w := range workload.All() {
		pr, err := bench.Prepare(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Tr == nil || pr.Tr.Len() >= lowestCap {
			t.Fatalf("%s: dynamic length not below %d", w.Name, lowestCap)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name     string
		old, cur []float64
		better   string
		want     string
	}{
		{"same", steady, steady, "lower", unchanged},
		{"slower beyond bound", steady, scale(steady, 1.2), "lower", regressed},
		{"slower within bound", steady, scale(steady, 1.05), "lower", unchanged},
		{"throughput drop", steady, scale(steady, 0.8), "higher", regressed},
		{"faster", steady, scale(steady, 0.9), "lower", improved},
		{"noisy", noisy, scale(noisy, 1.05), "lower", unresolved},
		{"noisy but every run faster", noisy, scale(steady, 0.5), "lower", improved},
	} {
		if got := verdict(c.old, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p25 float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			r := record{Workload: "suite", Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: metricSet{"op_p25_ms": {Value: p25 * (1 + 0.001*float64(i)), Unit: "ms"}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	old, slow := write("old.jsonl", 10), write("new.jsonl", 20)
	regressedFlag, err := runCompare(io.Discard, testRoot, old, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !regressedFlag {
		t.Error("a doubled op_p25_ms was not flagged as a regression")
	}
	if regressedFlag, _ := runCompare(io.Discard, testRoot, old, old); regressedFlag {
		t.Error("identical record files flagged as a regression")
	}
}

// TestBenchmarkDeclaration is the drift guard: a smoke run of every
// workload at tiny size emits exactly the end-to-end metrics, with their
// units, that BENCHMARK.json declares, and a traced run exactly its
// per-layer metrics; the workloads match too.
func TestBenchmarkDeclaration(t *testing.T) {
	b, err := loadBenchmarkFile(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range benchWorkloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, have)
	}
	units := func(specs []metricSpec) map[string]string {
		m := make(map[string]string)
		for _, s := range specs {
			m[s.Name] = s.Unit
		}
		return m
	}
	emitted := func(ms metricSet) map[string]string {
		m := make(map[string]string)
		for n, v := range ms {
			m[n] = v.Unit
		}
		return m
	}

	e, err := newEnv(testRoot, 3, tinySize(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range benchWorkloads {
		res, err := runWorkload(ctx, io.Discard, e, w, 0.05, false, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d", w.name, res.Correct, res.Attempted)
		}
		if got, want := emitted(res.Metrics), units(b.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		for n, m := range res.Metrics {
			if m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, n, m.Value)
			}
		}
	}

	dir := t.TempDir()
	res, err := runWorkload(ctx, io.Discard, e, benchWorkloads[0], 0.05, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emitted(res.Metrics), units(b.PerLayer); !reflect.DeepEqual(got, want) {
		var missing, extra []string
		for n := range want {
			if _, ok := got[n]; !ok {
				missing = append(missing, n)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		t.Errorf("traced run: missing %v, undeclared %v (or units differ)", missing, extra)
	}
	data, err := os.ReadFile(filepath.Join(dir, benchWorkloads[0].name+"-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans struct {
		Spans []spanRecord `json:"spans"`
	}
	if err := json.Unmarshal(data, &spans); err != nil || len(spans.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(spans.Spans))
	}
}

// TestReferenceCycles recomputes the pinned monolithic reference the
// sampled-mcf error is measured against.
func TestReferenceCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 31.7M instructions in detail")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	w, ok := workload.ByName(ref.Kernel)
	if !ok {
		t.Fatalf("no kernel %q", ref.Kernel)
	}
	hier, ok := mem.ConfigByName(ref.Hier)
	if !ok {
		t.Fatalf("no hierarchy %q", ref.Hier)
	}
	pr, err := bench.Prepare(w, ref.Scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.RunOpts(context.Background(), bench.ModelName(ref.Model), sim.ModelOptions{Hier: hier})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != ref.Cycles || res.Stats.Retired != ref.Retired {
		t.Fatalf("monolithic %s/%s scale %d: %d cycles, %d retired; reference.json pins %d, %d",
			ref.Model, ref.Kernel, ref.Scale, res.Stats.Cycles, res.Stats.Retired, ref.Cycles, ref.Retired)
	}
}
