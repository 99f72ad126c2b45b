package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"multipass/internal/fabric"
	"multipass/internal/mem"
	"multipass/internal/server"
)

// fabricWorkers in-process worker daemons of one simulation slot each sit
// behind the coordinator, so the fleet uses both host CPUs.
const fabricWorkers = 2

// fleet is a coordinator server whose fabric.Dispatcher shards jobs over
// in-process worker servers, all on loopback HTTP.
type fleet struct {
	workers []*httptest.Server
	d       *fabric.Dispatcher
	coord   *httptest.Server
}

func newFleet() (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < fabricWorkers; i++ {
		ts := httptest.NewServer(server.New(server.Config{Workers: 1, Role: "worker"}).Handler())
		f.workers = append(f.workers, ts)
		urls = append(urls, ts.URL)
	}
	d, err := fabric.New(fabric.Options{Workers: urls, WorkerSlots: 1})
	if err != nil {
		f.close()
		return nil, err
	}
	f.d = d
	f.coord = httptest.NewServer(server.New(server.Config{Role: "coordinator", Dispatcher: d}).Handler())
	// Workers fetch the coordinator's program bundles instead of compiling.
	d.SetSelfURL(f.coord.URL)
	return f, nil
}

func (f *fleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	if f.d != nil {
		f.d.Stop()
	}
	for _, w := range f.workers {
		w.Close()
	}
}

// steals sums the jobs worker slots stole from another worker's backlog.
func (f *fleet) steals() uint64 {
	var n uint64
	for _, d := range f.d.Dispositions() {
		n += d.Stolen
	}
	return n
}

// fabricSweep issues sweeps of every kernel on the in-order model under
// all three hierarchies through the coordinator, one at a time. Every sweep
// caps instructions at a value no earlier sweep used, so every cell misses
// the caches and is dispatched: with the cheapest model, the per-cell
// dispatch cost (ring, scheduler, HTTP hop, bundle fetch) is a visible share
// of the sweep.
type fabricSweep struct {
	e      *env
	f      *fleet
	client *http.Client
	rng    *rand.Rand
	sweeps uint64
}

func setupFabric(e *env, tr *tracer) (instance, error) {
	op := tr.op("setup")
	defer op.end()
	f, err := newFleet()
	if err != nil {
		return nil, err
	}
	s := &fabricSweep{e: e, f: f, client: newClient(), rng: rand.New(rand.NewSource(e.seed))}
	sp := op.child("fabric.warm_programs")
	err = warmPrograms(context.Background(), s.client, f.coord.URL, kernelNames(e.size.kernels))
	sp.end()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// request returns the next sweep: kernels in a seeded order, and an
// instruction cap no earlier sweep has used.
func (s *fabricSweep) request() server.SweepRequest {
	kernels := kernelNames(s.e.size.kernels)
	s.rng.Shuffle(len(kernels), func(i, j int) { kernels[i], kernels[j] = kernels[j], kernels[i] })
	s.sweeps++
	return server.SweepRequest{
		Workloads: kernels,
		Models:    []string{"inorder"},
		Hiers:     mem.ConfigNames(),
		MaxInsts:  freshBase + s.sweeps,
	}
}

// run posts the next sweep through the coordinator, checks every cell, and
// returns the sweep's latency and the simulated cycles of its cells.
func (s *fabricSweep) run(ctx context.Context, tr *tracer) (time.Duration, uint64, error) {
	op := tr.op("fabric.sweep")
	defer op.end()
	sr, d, err := sweep(ctx, s.client, s.f.coord.URL, s.request(), server.JobDone, s.e.goldens, op)
	if err != nil {
		return d, 0, err
	}
	var cycles uint64
	for _, j := range sr.Jobs {
		cycles += j.Stats.Cycles
	}
	return d, cycles, nil
}

func (s *fabricSweep) warm(ctx context.Context) error {
	_, _, err := s.run(ctx, nil)
	return err
}

func (s *fabricSweep) measure(ctx context.Context, deadline time.Time, tr *tracer) *measurement {
	m := &measurement{}
	steals := s.f.steals()
	s.e.loop(deadline, func() {
		d, cycles, err := s.run(ctx, tr)
		m.lat = append(m.lat, d)
		m.segs = append(m.segs, segment{cycles: cycles, host: d})
		if err != nil {
			m.fail(err)
		}
	})
	m.note = fmt.Sprintf("%d cells stolen between workers", s.f.steals()-steals)
	return m
}

func (s *fabricSweep) close() {
	s.client.CloseIdleConnections()
	s.f.close()
}
