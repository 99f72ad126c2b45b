package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"multipass/internal/bench"
	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// The sampled-mcf operating point: sparse SMARTS sampling of a stream far
// too long to pre-decode, with K-instruction intervals, W-instruction
// warm-up windows, every P-th interval simulated, two interval workers.
const (
	sampleK       = 100_000
	sampleW       = 25_000
	sampleP       = 12
	sampleWorkers = 2
)

func sampleConfig() sim.SampleConfig {
	return sim.SampleConfig{Interval: sampleK, Warmup: sampleW, Workers: sampleWorkers, Period: sampleP}
}

// sampled runs mcf at a long scale through sim.RunSampled on the multipass
// model. The pre-decoded trace is bypassed, so the superblock fast-forward,
// checkpoint capture, the lazy sim.Stream and interval parallelism carry
// the run.
type sampled struct {
	e     *env
	pr    *bench.Prepared
	first []byte // marshaled stats of the first run; every run must match
}

func setupSampled(e *env, tr *tracer) (instance, error) {
	op := tr.op("setup")
	defer op.end()
	w, _ := workload.ByName("mcf")
	pr, err := prepare(op, w, e.size.mcfScale)
	if err != nil {
		return nil, err
	}
	return &sampled{e: e, pr: pr}, nil
}

// run performs one sampled run and checks it: the retired count is exact
// (it comes from the functional pass) and the stitched statistics are
// byte-identical from run to run, whatever the interval scheduling.
func (s *sampled) run(ctx context.Context, tr *tracer) (*sim.Result, time.Duration, error) {
	op := tr.op("sampled.run")
	defer op.end()
	sp := op.child("sim.RunSampled")
	start := time.Now()
	res, err := s.pr.RunSampled(ctx, bench.MMultipass, sim.ModelOptions{Hier: mem.BaseConfig()}, sampleConfig())
	d := time.Since(start)
	sp.end()
	if err != nil {
		return nil, d, err
	}
	for _, ph := range res.Phases {
		// The fast-forward starts with the run; the stitch ends it.
		at := start
		if ph.Name != "func_ffwd" {
			at = start.Add(d - ph.Dur)
		}
		sp.record("sim."+ph.Name, at, ph.Dur)
	}
	data, err := json.Marshal(res.Stats)
	if err != nil {
		return nil, d, err
	}
	if s.first == nil {
		s.first = data
	} else if !bytes.Equal(data, s.first) {
		return nil, d, fmt.Errorf("sampled stats differ between runs")
	}
	if ref := s.e.ref; s.e.size.mcfScale == ref.Scale && res.Stats.Retired != ref.Retired {
		return nil, d, fmt.Errorf("sampled run retired %d, want %d", res.Stats.Retired, ref.Retired)
	}
	return res, d, nil
}

func (s *sampled) warm(ctx context.Context) error {
	_, _, err := s.run(ctx, nil)
	return err
}

func (s *sampled) measure(ctx context.Context, deadline time.Time, tr *tracer) *measurement {
	m := &measurement{}
	s.e.loop(deadline, func() {
		res, d, err := s.run(ctx, tr)
		m.lat = append(m.lat, d)
		if err != nil {
			m.segs = append(m.segs, segment{host: d})
			m.fail(err)
			return
		}
		m.segs = append(m.segs, segment{cycles: res.Stats.Cycles, host: d})
		m.note = fmt.Sprintf("stitched %d sim cycles, %d retired", res.Stats.Cycles, res.Stats.Retired)
		if ref := s.e.ref; s.e.size.mcfScale == ref.Scale {
			m.note += fmt.Sprintf("; sampling error %+.3f%% vs monolithic %d", 100*(float64(res.Stats.Cycles)/float64(ref.Cycles)-1), ref.Cycles)
		}
	})
	return m
}

func (s *sampled) close() {}
