package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"multipass/internal/bench"
	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// models are the evaluation's six timing models, in the paper's order of
// presentation.
var models = []string{"inorder", "runahead", "multipass", "ooo", "ooo-realistic", "cgooo"}

// layerOf names the package whose cycle loop runs a model: the multipass
// machine lives in internal/core, the others under internal/pipe.
func layerOf(model string) string {
	if model == "multipass" {
		return "core.multipass"
	}
	return "pipe." + model
}

// prepare compiles a kernel and pre-decodes its trace under one span.
// (probeBuild times the two layers apart.)
func prepare(parent *span, w workload.Workload, scale int) (*bench.Prepared, error) {
	sp := parent.child("bench.Prepare")
	defer sp.end()
	return bench.Prepare(w, scale)
}

// suite runs the paper's evaluation grid: every kernel on every model at
// scale 1 on the base hierarchy, monolithic, in one goroutine. The cycle
// loops, mem.Hierarchy and bpred do nearly all of the work. One operation
// is one pass over the grid; its cells are timed individually only in the
// traced run's spans.
type suite struct {
	e       *env
	kernels []string
	preps   []*bench.Prepared
	rng     *rand.Rand
}

func setupSuite(e *env, tr *tracer) (instance, error) {
	op := tr.op("setup")
	defer op.end()
	s := &suite{e: e, rng: rand.New(rand.NewSource(e.seed))}
	for _, w := range e.size.kernels {
		pr, err := prepare(op, w, 1)
		if err != nil {
			return nil, err
		}
		s.kernels = append(s.kernels, w.Name)
		s.preps = append(s.preps, pr)
	}
	return s, nil
}

// cellResult is one suite cell's output, checked after the measurement.
type cellResult struct {
	kernel, model int
	stats         sim.Stats
	err           error
}

// pass runs every cell once, in an order drawn from the seed, and returns
// the cells' outputs and the pass as a throughput sample.
func (s *suite) pass(ctx context.Context, tr *tracer) ([]cellResult, segment) {
	var cells []cellResult
	var seg segment
	start := time.Now()
	for _, c := range s.rng.Perm(len(s.kernels) * len(models)) {
		k, mi := c/len(models), c%len(models)
		op := tr.op("suite.cell")
		sp := op.child(layerOf(models[mi]) + ".run")
		res, err := s.preps[k].Run(ctx, bench.ModelName(models[mi]), mem.BaseConfig())
		sp.end()
		op.end()
		cr := cellResult{kernel: k, model: mi, err: err}
		if err == nil {
			cr.stats = res.Stats
			seg.cycles += res.Stats.Cycles
		}
		cells = append(cells, cr)
	}
	seg.host = time.Since(start)
	return cells, seg
}

func (s *suite) warm(ctx context.Context) error {
	cells, _ := s.pass(ctx, nil)
	if err := s.check(cells); err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	return nil
}

func (s *suite) measure(ctx context.Context, deadline time.Time, tr *tracer) *measurement {
	m := &measurement{}
	var passes [][]cellResult
	s.e.loop(deadline, func() {
		cells, seg := s.pass(ctx, tr)
		passes = append(passes, cells)
		m.lat = append(m.lat, seg.host)
		m.segs = append(m.segs, seg)
	})
	for _, cells := range passes {
		if err := s.check(cells); err != nil {
			m.fail(err)
		}
	}
	return m
}

// check returns the first cell of a pass whose statistics differ from its
// golden, or whose run failed.
func (s *suite) check(cells []cellResult) error {
	for _, c := range cells {
		err := c.err
		if err == nil {
			err = s.e.goldens.check(models[c.model], s.kernels[c.kernel], "base", &c.stats)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *suite) close() {}
