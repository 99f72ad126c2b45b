package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"multipass/internal/arch"
	"multipass/internal/bench"
	"multipass/internal/bpred"
	"multipass/internal/compile"
	"multipass/internal/mem"
	"multipass/internal/server"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// runProbes times every layer from outside, through its public functions,
// and adds the per-layer metrics to out. Every traced run measures all of
// them, whatever its workload, so each layer's numbers can be read next to
// any workload's end-to-end numbers. README.md maps each layer metric to the
// end-to-end metric and workload it should move.
func runProbes(ctx context.Context, e *env, tr *tracer, out metricSet) error {
	var preps []*bench.Prepared
	probes := []struct {
		name string
		run  func() error
	}{
		{"compile_and_decode", func() (err error) { preps, err = probeBuild(e, out); return err }},
		{"cycle_loops", func() error { return probeCycleLoops(ctx, e, preps, out) }},
		{"mem", func() error { probeMem(e, out); return nil }},
		{"bpred", func() error { probeBpred(e, out); return nil }},
		{"sampling", func() error { return probeSampling(ctx, e, out) }},
		{"server", func() error { return probeServer(ctx, e, preps, out) }},
		{"fabric", func() error { return probeFabric(ctx, e, out) }},
	}
	for _, p := range probes {
		op := tr.op("probe." + p.name)
		err := p.run()
		op.end()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// nsPer times n calls of f, five times, and returns the median
// nanoseconds per call (including the call through f).
func nsPer(n int, f func(i int)) float64 {
	var reps []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		reps = append(reps, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(reps)
}

// probeBuild times the two layers of set-up's bench.Prepare separately over
// every scale-1 kernel: internal/workload + internal/compile, then
// sim.BuildTrace (uncapped: every scale-1 kernel is far below any cap). It
// returns the kernels as bench.Prepare builds them, for the later probes.
func probeBuild(e *env, out metricSet) ([]*bench.Prepared, error) {
	var compileDur, decodeDur time.Duration
	var insts uint64
	var preps []*bench.Prepared
	for _, w := range e.size.kernels {
		start := time.Now()
		p, image, err := workload.Program(w, 1, compile.DefaultOptions())
		compileDur += time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		tr, err := sim.BuildTrace(p, image, math.MaxUint64)
		decodeDur += time.Since(start)
		if err != nil {
			return nil, err
		}
		insts += tr.Len()
		pr, err := bench.Prepare(w, 1)
		if err != nil {
			return nil, err
		}
		preps = append(preps, pr)
	}
	out.set("workload.program_ms", "ms", ms(compileDur))
	out.set("sim.build_trace_ms", "ms", ms(decodeDur))
	out.set("sim.build_trace_minsts_per_s", "Minsts/s", float64(insts)/decodeDur.Seconds()/1e6)
	return preps, nil
}

// flatHier keeps Table 2's geometry but answers every access in one cycle
// at every level, so a model's host time on it is its pipeline's own cost.
func flatHier() mem.HierConfig {
	h := mem.BaseConfig()
	h.L1I.Latency, h.L1D.Latency, h.L2.Latency, h.L3.Latency, h.MemLatency = 1, 1, 1, 1, 1
	return h
}

// probeCycleLoops times Machine.Run per cell, once on the base hierarchy
// and once on the flat one, and reports host nanoseconds per simulated
// cycle for each model's cycle loop, plus heap allocations per cell.
func probeCycleLoops(ctx context.Context, e *env, preps []*bench.Prepared, out metricSet) error {
	for _, h := range []struct {
		prefix string
		cfg    mem.HierConfig
	}{{"", mem.BaseConfig()}, {"flatmem_", flatHier()}} {
		host := make([]time.Duration, len(models))
		cycles := make([]uint64, len(models))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for k, pr := range preps {
			for mi, model := range models {
				start := time.Now()
				res, err := pr.Run(ctx, bench.ModelName(model), h.cfg)
				host[mi] += time.Since(start)
				if err != nil {
					return err
				}
				cycles[mi] += res.Stats.Cycles
				hier := "base"
				if h.prefix != "" {
					hier = "flat" // retired count only: no golden for this hierarchy
				}
				if err := e.goldens.check(model, e.size.kernels[k].Name, hier, &res.Stats); err != nil {
					return err
				}
			}
		}
		runtime.ReadMemStats(&ms1)
		for mi, model := range models {
			out.set(layerOf(model)+"."+h.prefix+"ns_per_simcycle", "ns/cycle", float64(host[mi].Nanoseconds())/float64(cycles[mi]))
		}
		if h.prefix == "" {
			out.set("suite.allocs_per_cell", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(preps)*len(models)))
		}
	}
	return nil
}

// probeMem times mem.Hierarchy on address streams built to hit at each
// level. The clock advances far enough between accesses that every fill has
// completed, so each access takes exactly the path its stream selects.
func probeMem(e *env, out metricSet) {
	const base = 0x0100_0000
	n := e.size.probeN
	h := mem.MustNewHierarchy(mem.BaseConfig())
	var now uint64
	stream := func(lines int, stride uint32) func(i int) {
		return func(i int) {
			now += 1000
			h.AccessData(base+uint32(i%lines)*stride, now, false, false)
		}
	}
	for _, s := range []struct {
		name   string
		lines  int
		stride uint32
	}{
		{"l1_hit", 64, 64},       // 4 KiB: resident in the 16 KiB L1
		{"l2_hit", 2048, 64},     // 128 KiB: misses L1, fits the 256 KiB L2
		{"memory", 1 << 17, 128}, // 16 MiB: misses the 3 MiB L3
	} {
		f := stream(s.lines, s.stride)
		for i := 0; i < s.lines; i++ {
			f(i) // fill the levels the stream is meant to hit
		}
		out.set("mem.data_ns."+s.name, "ns", nsPer(n, f))
	}

	out.set("mem.inst_ns", "ns", nsPer(n, func(i int) {
		now += 1000
		h.AccessInst(base+uint32(i%64)*64, now)
	}))

	rng := rand.New(rand.NewSource(e.seed))
	addrs := make([]uint32, 1<<16)
	for i := range addrs {
		addrs[i] = base + uint32(rng.Intn(4<<20))&^3
	}
	out.set("mem.warm_data_ns", "ns", nsPer(n, func(i int) {
		h.WarmData(addrs[i&(len(addrs)-1)], i&7 == 0)
	}))
}

// probeBpred times one gshare predict plus update on a seeded stream of
// branches with per-branch biases, so both outcomes and mispredictions occur.
func probeBpred(e *env, out metricSet) {
	rng := rand.New(rand.NewSource(e.seed))
	bias := make([]float64, 512)
	for i := range bias {
		bias[i] = rng.Float64()
	}
	pcs := make([]uint32, 1<<16)
	taken := make([]bool, len(pcs))
	for i := range pcs {
		b := rng.Intn(len(bias))
		pcs[i] = uint32(b) * 16
		taken[i] = rng.Float64() < bias[b]
	}
	g := bpred.Default()
	out.set("bpred.predict_update_ns", "ns", nsPer(e.size.probeN, func(i int) {
		j := i & (len(pcs) - 1)
		g.Predict(pcs[j])
		g.Update(pcs[j], taken[j])
	}))
}

// probeSampling takes the sampled-mcf run apart: the superblock functional
// interpreter alone, the lazy stream, the checkpointing fast-forward with no
// consumers, each interval simulated serially, and one whole sampled run.
func probeSampling(ctx context.Context, e *env, out metricSet) error {
	w, _ := workload.ByName("mcf")
	start := time.Now()
	p, image, err := workload.Program(w, e.size.mcfScale, compile.DefaultOptions())
	if err != nil {
		return err
	}
	out.set("workload.program_mcf128_ms", "ms", ms(time.Since(start)))

	m, err := sim.NewMachine("multipass", sim.ModelOptions{Hier: mem.BaseConfig()})
	if err != nil {
		return err
	}
	ir := m.(sim.IntervalRunner)
	spec := ir.CheckpointSpec()

	sb := arch.NewSBProgram(p)
	img := image.Clone()
	start = time.Now()
	fres, err := sb.Run(img, spec.MaxInsts)
	funcDur := time.Since(start)
	if err != nil {
		return err
	}
	n := fres.State.Retired
	out.set("arch.funcinsts_per_s", "insts/s", float64(n)/funcDur.Seconds())

	st := sim.NewStream(p, image.Clone(), spec.MaxInsts)
	steps := min(n, 1<<21)
	out.set("sim.stream_at_ns", "ns", float64(timeIt(func() {
		for seq := uint64(0); seq < steps && err == nil; seq++ {
			_, err = st.At(seq)
			st.Release(seq)
		}
	}).Nanoseconds())/float64(steps))
	if err != nil {
		return err
	}

	src, err := sim.StreamCheckpoints(ctx, p, image, sampleConfig(), spec)
	if err != nil {
		return err
	}
	var cks []*sim.Checkpoint
	for ck := range src.C {
		cks = append(cks, ck)
	}
	_, _, ffDur, err := src.Wait()
	if err != nil {
		return err
	}
	out.set("sim.ffwd_s", "s", ffDur.Seconds())
	out.set("sim.ckpt_share", "ratio", 1-funcDur.Seconds()/ffDur.Seconds())

	var intervals []float64
	var serial time.Duration
	for _, ck := range cks {
		start := time.Now()
		if _, err := ir.RunInterval(ctx, p, image, ck); err != nil {
			return err
		}
		d := time.Since(start)
		serial += d
		intervals = append(intervals, ms(d))
	}
	out.set("sim.interval_ms.p50", "ms", quantile(intervals, 0.5))
	out.set("sim.interval_ms.p90", "ms", quantile(intervals, 0.9))

	pr := &bench.Prepared{P: p, Image: image}
	start = time.Now()
	res, err := pr.RunSampled(ctx, bench.MMultipass, sim.ModelOptions{Hier: mem.BaseConfig()}, sampleConfig())
	runDur := time.Since(start)
	if err != nil {
		return err
	}
	if res.Stats.Retired != n {
		return fmt.Errorf("sampled run retired %d, functional run %d", res.Stats.Retired, n)
	}
	for _, ph := range res.Phases {
		if ph.Name == "stitch" {
			out.set("sim.stitch_ms", "ms", ms(ph.Dur))
		}
	}
	out.set("sampled.overlap", "ratio", (ffDur.Seconds()+serial.Seconds()/sampleWorkers)/runDur.Seconds())

	refCycles := e.ref.Cycles
	if e.size.mcfScale != e.ref.Scale {
		mono, err := pr.Run(ctx, bench.MMultipass, mem.BaseConfig())
		if err != nil {
			return err
		}
		refCycles = mono.Stats.Cycles
	}
	out.set("sampled.err_pct", "%", 100*math.Abs(float64(res.Stats.Cycles)/float64(refCycles)-1))
	return nil
}

// probeServer times the server's cache-hit path with and without the
// socket, and its miss-path overhead over simulating the same job directly.
func probeServer(ctx context.Context, e *env, preps []*bench.Prepared, out metricSet) error {
	h := server.New(server.Config{Workers: serviceWorkers}).Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	if err := warmPrograms(ctx, c, ts.URL, kernelNames(e.size.kernels)); err != nil {
		return err
	}

	body, err := json.Marshal(server.RunRequest{Workload: e.size.kernels[0].Name, Model: "inorder", MaxInsts: setupInsts})
	if err != nil {
		return err
	}
	reps := max(e.size.probeN/100, 20)
	var direct, loop []float64
	for i := 0; i < reps; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		d := timeIt(func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK || rec.Header().Get("X-Mpsimd-Cache") != "hit" {
			return fmt.Errorf("direct hit: status %d, cache %q", rec.Code, rec.Header().Get("X-Mpsimd-Cache"))
		}
		direct = append(direct, float64(d.Nanoseconds())/1e3)
		d = timeIt(func() { _, _, err = post(ctx, c, ts.URL+"/v1/run", body) })
		if err != nil {
			return err
		}
		loop = append(loop, float64(d.Nanoseconds())/1e3)
	}
	out.set("server.handler_hit_us", "us", median(direct))
	out.set("server.loopback_us", "us", median(loop)-median(direct))

	// Each fresh job is simulated twice, directly and through the server, in
	// alternation so host drift cancels; the difference is what the server
	// adds to a miss (decode, queue, cache, marshal, HTTP).
	var overhead []float64
	for r := 0; r < 2; r++ {
		for k, pr := range preps {
			d, err := missOverhead(ctx, c, ts.URL, pr, e.size.kernels[k].Name, uint64(freshBase/2+r*len(preps)+k))
			if err != nil {
				return err
			}
			overhead = append(overhead, ms(d))
		}
	}
	out.set("server.miss_overhead_ms.p50", "ms", quantile(overhead, 0.5))
	out.set("server.miss_overhead_ms.p90", "ms", quantile(overhead, 0.9))
	return nil
}

// missOverhead runs one fresh in-order job directly and then through the
// server, checks that both give the same statistics, and returns the
// difference in host time.
func missOverhead(ctx context.Context, c *http.Client, base string, pr *bench.Prepared, kernel string, limit uint64) (time.Duration, error) {
	start := time.Now()
	res, err := pr.RunOpts(ctx, bench.MInorder, sim.ModelOptions{Hier: mem.BaseConfig(), MaxInsts: limit})
	direct := time.Since(start)
	if err != nil {
		return 0, err
	}
	body, err := json.Marshal(server.RunRequest{Workload: kernel, Model: string(bench.MInorder), MaxInsts: limit})
	if err != nil {
		return 0, err
	}
	start = time.Now()
	data, _, err := post(ctx, c, base+"/v1/run", body)
	served := time.Since(start)
	if err != nil {
		return 0, err
	}
	var rr server.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return 0, err
	}
	if rr.Stats != res.Stats {
		return 0, fmt.Errorf("%s: served stats differ from a direct run", kernel)
	}
	return served - direct, nil
}

// probeFabric times one coordinator-to-worker dispatch of a job the worker
// already caches, and compares coordinator sweeps against a standalone
// two-worker server on the same grid.
func probeFabric(ctx context.Context, e *env, out metricSet) error {
	f, err := newFleet()
	if err != nil {
		return err
	}
	defer f.close()
	standalone := httptest.NewServer(server.New(server.Config{Workers: fabricWorkers}).Handler())
	defer standalone.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	kernels := kernelNames(e.size.kernels)
	for _, base := range []string{f.coord.URL, standalone.URL} {
		if err := warmPrograms(ctx, c, base, kernels); err != nil {
			return err
		}
	}

	// The set-up sweep left this job in its worker's result cache.
	opts := compile.DefaultOptions()
	spec := server.JobSpec{Workload: kernels[0], Model: "inorder", Hier: "base", Scale: 1,
		Schedule: opts.Schedule, InsertRestarts: opts.InsertRestarts, Unroll: opts.Unroll, MaxInsts: setupInsts}
	var rtt []float64
	for i := 0; i < max(e.size.probeN/1000, 20); i++ {
		d := timeIt(func() { _, err = f.d.Dispatch(ctx, spec) })
		if err != nil {
			return err
		}
		rtt = append(rtt, ms(d))
	}
	out.set("fabric.dispatch_rtt_ms.p50", "ms", median(rtt))

	steals := f.steals()
	var viaCoord, viaStandalone []float64
	for r := 0; r < 3; r++ {
		req := server.SweepRequest{Workloads: kernels, Models: []string{"inorder"}, Hiers: mem.ConfigNames(),
			MaxInsts: uint64(freshBase/2 + 1000 + r)}
		_, d, err := sweep(ctx, c, f.coord.URL, req, server.JobDone, e.goldens, nil)
		if err != nil {
			return err
		}
		viaCoord = append(viaCoord, d.Seconds())
		_, d, err = sweep(ctx, c, standalone.URL, req, server.JobDone, e.goldens, nil)
		if err != nil {
			return err
		}
		viaStandalone = append(viaStandalone, d.Seconds())
	}
	out.set("fabric.overhead_ratio", "ratio", median(viaCoord)/median(viaStandalone))
	out.set("fabric.steals", "count", float64(f.steals()-steals))
	return nil
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
