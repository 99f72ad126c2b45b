package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"multipass/internal/server"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// serviceWorkers is the server's simulation pool: one worker per host CPU.
const serviceWorkers = 2

// setupInsts is the instruction cap of set-up traffic: above every scale-1
// kernel's length, below every session's, so set-up never populates a
// cache entry a session reads.
const setupInsts = freshBase - 1

// newClient returns an HTTP client with its own connection pool, so closing
// a workload instance drops exactly its connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
}

// post sends a JSON body and returns the reply body and headers; any status
// other than 200 is an error.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, data)
	}
	return data, resp.Header, nil
}

// warmPrograms sends one sweep of every kernel on the cheapest model so the
// server compiles and trace-decodes every program during set-up.
func warmPrograms(ctx context.Context, c *http.Client, base string, kernels []string) error {
	req := server.SweepRequest{Workloads: kernels, Models: []string{"inorder"}, Hiers: []string{"base"}, MaxInsts: setupInsts}
	_, _, err := sweep(ctx, c, base, req, "", nil, nil)
	return err
}

// sweep posts one /v1/sweep and checks its summary. With want set, every
// cell must have that status; with g set, every cell must match its golden.
// It returns the response and its latency.
func sweep(ctx context.Context, c *http.Client, base string, req server.SweepRequest, want string, g *goldens, parent *span) (*server.SweepResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	sp := parent.child("http.sweep")
	start := time.Now()
	data, _, err := post(ctx, c, base+"/v1/sweep", body)
	d := time.Since(start)
	sp.end()
	if err != nil {
		return nil, d, err
	}
	var sr server.SweepResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, d, err
	}
	cells := len(req.Workloads) * len(req.Models) * len(req.Hiers)
	if sr.Summary.Total != cells || sr.Summary.Failed != 0 || len(sr.Jobs) != cells {
		return nil, d, fmt.Errorf("sweep summary %+v, want %d cells and none failed", sr.Summary, cells)
	}
	for _, j := range sr.Jobs {
		if j.Stats == nil || (want != "" && j.Status != want) {
			return nil, d, fmt.Errorf("sweep cell %s/%s/%s: status %q, want %q with stats", j.Job.Workload, j.Job.Model, j.Job.Hier, j.Status, want)
		}
		if g != nil {
			if err := g.check(j.Job.Model, j.Job.Workload, j.Job.Hier, j.Stats); err != nil {
				return nil, d, err
			}
		}
	}
	return &sr, d, nil
}

// service drives an in-process mpsimd server over loopback HTTP the way the
// repository documents its use (sessions.go). One operation is one session:
// one client sweeps a grid the server has not seen, so every cell is
// simulated, marshaled and cached; it then re-issues the sweep and re-runs
// every cell with /v1/run, and the result cache serves both.
type service struct {
	e      *env
	srv    *httptest.Server
	client *http.Client
	gen    *sessions
}

func setupService(e *env, tr *tracer) (instance, error) {
	op := tr.op("setup")
	defer op.end()
	s := &service{
		e:      e,
		srv:    httptest.NewServer(server.New(server.Config{Workers: serviceWorkers}).Handler()),
		client: newClient(),
		gen:    newSessions(e.seed, kernelNames(e.size.kernels)),
	}
	sp := op.child("server.warm_programs")
	err := warmPrograms(context.Background(), s.client, s.srv.URL, kernelNames(e.size.kernels))
	sp.end()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// sessionOut is what one session observed.
type sessionOut struct {
	sweep, resweep time.Duration   // the first sweep (misses) and its re-issue (hits)
	runs           []time.Duration // each /v1/run (hits)
	cycles         uint64          // simulated cycles of the cells the first sweep computed
	host           time.Duration
}

// requests returns every request latency of the session.
func (o *sessionOut) requests() []time.Duration {
	var out []time.Duration
	if o.sweep > 0 {
		out = append(out, o.sweep)
	}
	if o.resweep > 0 {
		out = append(out, o.resweep)
	}
	return append(out, o.runs...)
}

// session runs the next session and checks it: the first sweep computes
// every cell and matches the goldens, the re-issued sweep serves every cell
// from the cache with the same statistics, and every /v1/run is a cache hit
// with the statistics of its sweep cell.
func (s *service) session(ctx context.Context, tr *tracer) (out sessionOut, err error) {
	ss := s.gen.next()
	op := tr.op("service.session")
	defer op.end()
	start := time.Now()
	defer func() { out.host = time.Since(start) }()

	first, d, err := sweep(ctx, s.client, s.srv.URL, ss.sweep, server.JobDone, s.e.goldens, op)
	out.sweep = d
	if err != nil {
		return out, err
	}
	cells := make(map[server.RunRequest]*sim.Stats)
	for _, j := range first.Jobs {
		cells[server.RunRequest{Workload: j.Job.Workload, Model: j.Job.Model, Hier: j.Job.Hier, MaxInsts: ss.sweep.MaxInsts}] = j.Stats
		out.cycles += j.Stats.Cycles
	}
	again, d, err := sweep(ctx, s.client, s.srv.URL, ss.sweep, server.JobCached, nil, op)
	out.resweep = d
	if err != nil {
		return out, err
	}
	for i, j := range again.Jobs {
		if *j.Stats != *first.Jobs[i].Stats {
			return out, fmt.Errorf("re-issued sweep: cell %s/%s/%s differs from the first sweep", j.Job.Workload, j.Job.Model, j.Job.Hier)
		}
	}
	for _, rr := range ss.runs {
		body, err := json.Marshal(rr)
		if err != nil {
			return out, err
		}
		sp := op.child("http.run")
		start := time.Now()
		data, hdr, err := post(ctx, s.client, s.srv.URL+"/v1/run", body)
		d := time.Since(start)
		sp.end()
		out.runs = append(out.runs, d)
		if err != nil {
			return out, err
		}
		recordServerSpans(sp, start, hdr.Get("X-Mpsimd-Trace"))
		var resp server.RunResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return out, err
		}
		want, ok := cells[rr]
		if c := hdr.Get("X-Mpsimd-Cache"); c != "hit" || !ok || resp.Stats != *want {
			return out, fmt.Errorf("/v1/run %s/%s/%s after its sweep: cache %q, stats equal to the sweep's: %t",
				rr.Workload, rr.Model, rr.Hier, c, ok && resp.Stats == *want)
		}
	}
	return out, nil
}

// recordServerSpans turns the server's own per-phase timings, which it
// reports in the X-Mpsimd-Trace header ("id=..;queue_wait=0.012ms;...;
// total=1.2ms"), into child spans of the round trip, laid end to end from
// its start.
func recordServerSpans(parent *span, start time.Time, header string) {
	if parent == nil {
		return
	}
	at := start
	for _, field := range strings.Split(header, ";") {
		name, val, ok := strings.Cut(field, "=")
		if !ok || name == "id" || name == "total" {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(val, "ms"), 64)
		if err != nil {
			continue
		}
		d := time.Duration(ms * float64(time.Millisecond))
		parent.record("server."+name, at, d)
		at = at.Add(d)
	}
}

func (s *service) warm(ctx context.Context) error {
	_, err := s.session(ctx, nil)
	return err
}

func (s *service) measure(ctx context.Context, deadline time.Time, tr *tracer) *measurement {
	m := &measurement{}
	var sweeps, resweeps, runs []time.Duration
	s.e.loop(deadline, func() {
		out, err := s.session(ctx, tr)
		m.lat = append(m.lat, out.requests()...)
		m.segs = append(m.segs, segment{cycles: out.cycles, host: out.host})
		if err != nil {
			m.fail(err)
			return
		}
		sweeps = append(sweeps, out.sweep)
		resweeps = append(resweeps, out.resweep)
		runs = append(runs, out.runs...)
	})
	m.note = fmt.Sprintf("median host latency per request kind: first sweep %.1f ms (n=%d), re-issued sweep %.2f ms (n=%d), /v1/run hit %.3f ms (n=%d)",
		median(millis(sweeps)), len(sweeps), median(millis(resweeps)), len(resweeps), median(millis(runs)), len(runs))
	return m
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

func kernelNames(ws []workload.Workload) []string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}
