// Package server implements mpsimd: an HTTP/JSON simulation service over
// the timing models and workload suite. It executes jobs on a bounded
// worker pool, memoizes results in a sharded content-addressed cache keyed
// by the canonical job tuple (a cache hit replays byte-identical JSON), and
// honors per-request deadlines by threading context cancellation into the
// models' cycle loops.
//
// Endpoints:
//
//	POST /v1/run            one simulation job (?debug=true adds a trace section)
//	POST /v1/sweep          a (workloads x models x hierarchies) batch;
//	                        ?stream=true streams NDJSON results as they land
//	GET  /v1/models         registered timing models and named hierarchies
//	GET  /v1/workloads      the benchmark kernels
//	GET  /v1/stats          server metrics (jobs, cache, latency percentiles)
//	GET  /v1/worker/health  liveness + role, probed by fabric coordinators
//	GET  /metrics           Prometheus text-format exposition
//
// Every response carries X-Mpsimd-Request-Id and (on /v1/*) the
// Mpsimd-Api-Version header; /v1/run adds X-Mpsimd-Cache
// (hit|miss|coalesced) and X-Mpsimd-Trace (per-phase spans). Errors share
// one envelope: {"error":{"code":...,"message":...,"hint":...}} with
// stable codes. Request logs go through the configured slog.Logger.
//
// With Config.Dispatcher set the server runs as a fabric coordinator: jobs
// are routed to remote workers (consistent-hashed on the job key) instead
// of the local pool, while the result cache, coalescing, and replay
// guarantees stay local — see internal/fabric.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/obs"
	"multipass/internal/sim"
	"multipass/internal/workload"

	// Link the standard timing models into the sim registry so a bare
	// server binary serves them all.
	_ "multipass/internal/core"
	_ "multipass/internal/pipe/cgooo"
	_ "multipass/internal/pipe/inorder"
	_ "multipass/internal/pipe/ooo"
	_ "multipass/internal/pipe/runahead"
)

// Config shapes a Server.
type Config struct {
	// Workers bounds concurrently executing simulations; 0 means
	// GOMAXPROCS.
	Workers int
	// DefaultTimeout applies to requests that do not set timeout_ms; 0
	// means no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxSweepJobs rejects sweeps whose grid exceeds it; 0 means the
	// default of 4096.
	MaxSweepJobs int
	// MaxCacheBytes bounds the result cache's byte footprint; 0 means the
	// default of 256 MiB. Entries beyond the budget are evicted
	// clock-style (second chance).
	MaxCacheBytes int64
	// PersistDir, when non-empty, persists the result cache under
	// PersistDir/results so a restarted server (most importantly a sweep
	// coordinator) serves previously computed cells from disk and
	// re-dispatches only what it is missing.
	PersistDir string
	// Logger receives structured request and job logs; nil discards them.
	Logger *slog.Logger
	// Role names this daemon's place in a sweep fabric ("standalone",
	// "worker", "coordinator"); it is reported by /v1/worker/health.
	// Empty means "standalone".
	Role string
	// Dispatcher, when non-nil, routes job execution to remote fabric
	// workers instead of the local pool. The result cache and flight
	// coalescing still run locally, so cached replay stays byte-identical
	// and duplicate cells dispatch once.
	Dispatcher Dispatcher
}

// Dispatcher is the fabric hook: the coordinator-side transport that runs a
// job on a remote worker and reports per-worker accounting. Implemented by
// internal/fabric; defined here so the server does not depend on it.
type Dispatcher interface {
	// Dispatch runs one job remotely and returns the worker's canonical
	// RunResponse bytes, which are byte-identical to a local execution.
	Dispatch(ctx context.Context, spec JobSpec) ([]byte, error)
	// Dispositions snapshots cumulative per-worker job accounting, keyed
	// by worker base URL.
	Dispositions() map[string]WorkerDisposition
	// WorkerFamilies scrapes the workers' /metrics and returns their
	// mpsimd_* families relabeled under mpsimd_worker_* with a `worker`
	// label, for merging into the coordinator's exposition.
	WorkerFamilies() []obs.TextFamily
}

// Cache dispositions: how runCached satisfied a request. Exactly one is
// counted per request, so hits + misses + coalesced equals the number of
// /v1/run requests plus sweep cells that reached the cache layer.
const (
	dispHit       = "hit"       // served from the result cache
	dispMiss      = "miss"      // executed (or attempted) a simulation
	dispCoalesced = "coalesced" // joined another request's in-flight execution
)

// Server is the mpsimd HTTP service.
type Server struct {
	cfg     Config
	cache   *resultCache
	log     *slog.Logger
	metrics *serverMetrics
	// sem is the worker pool: one token per concurrently executing
	// simulation.
	sem chan struct{}

	jobsExecuted atomic.Uint64
	jobsFailed   atomic.Uint64
	inFlight     atomic.Int64

	// programsBuilt counts local workload compilations; programsFetched
	// counts program bundles fetched pre-built from a coordinator instead.
	programsBuilt   atomic.Uint64
	programsFetched atomic.Uint64
	// fabricClient performs program-bundle fetches (worker side).
	fabricClient *http.Client

	// flights coalesces concurrent executions of the same job: followers
	// wait for the leader's bytes instead of re-simulating.
	flightMu sync.Mutex
	flights  map[string]*flight

	// progs memoizes compiled programs and their pre-decoded traces, keyed
	// by the job fields that determine the binary (workload, scale, compile
	// options). A sweep then decodes each workload once and every model in
	// the grid reads the same trace.
	progMu sync.Mutex
	progs  map[string]*builtProgram

	start time.Time
}

// flight is one in-progress execution; done is closed once data/err are set.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// builtProgram is one memoized compilation: the binary, its initial image,
// and the pre-decoded oracle trace (nil when the workload is too long to
// trace, in which case runs fall back to the lazy interpreter). The build
// runs in its own goroutine and done is closed when the fields are set, so
// waiters can give up when their deadline expires without abandoning the
// build. The phase durations are kept so the triggering request can report
// them as spans.
type builtProgram struct {
	done       chan struct{}
	p          *isa.Program
	image      *arch.Memory
	tr         *sim.Trace
	err        error
	compileDur time.Duration
	traceDur   time.Duration
}

// progCacheCap bounds the program memo; the whole map is dropped when full
// (compilations are cheap relative to simulation, the memo exists to share
// traces within a sweep).
const progCacheCap = 64

// program returns the memoized compilation for the spec's binary-identity
// fields, compiling and tracing on first use. The build itself runs
// detached: a waiter whose ctx expires returns ctx.Err() immediately while
// the compilation finishes for later requests. The request that triggered
// the build reports compile and trace_decode spans on otr; memo hits
// report only their wait. A non-nil ref lets the build fetch the
// coordinator's pre-built bundle instead of compiling.
func (s *Server) program(ctx context.Context, spec JobSpec, ref *ProgramRef, otr *obs.Trace) (*isa.Program, *arch.Memory, *sim.Trace, error) {
	key := ProgramKey(spec)
	for {
		s.progMu.Lock()
		if s.progs == nil || len(s.progs) >= progCacheCap {
			s.progs = make(map[string]*builtProgram)
		}
		b, ok := s.progs[key]
		triggered := !ok
		if !ok {
			b = &builtProgram{done: make(chan struct{})}
			s.progs[key] = b
			go s.buildProgram(ctx, b, key, spec, ref)
		}
		s.progMu.Unlock()

		wait := time.Now()
		select {
		case <-b.done:
		case <-ctx.Done():
			otr.Observe("compile", time.Since(wait))
			return nil, nil, nil, ctx.Err()
		}
		if b.err == errProgramBuildAborted {
			// The entry died with its triggering request (see buildProgram).
			// This waiter is still live, so re-trigger with its own ref.
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, err
			}
			continue
		}
		if triggered {
			otr.Observe("compile", b.compileDur)
			otr.Observe("trace_decode", b.traceDur)
		} else {
			otr.Observe("compile", time.Since(wait))
		}
		return b.p, b.image, b.tr, b.err
	}
}

// errProgramBuildAborted marks a memo entry whose triggering request died
// before its bundle fetch resolved. The entry is dropped from the memo;
// live waiters observe the sentinel and re-trigger with their own ref.
var errProgramBuildAborted = errors.New("server: program build aborted: requester gone")

// buildProgram compiles (or fetches) and traces one memo entry, then
// publishes it by closing done. It never holds progMu: a slow compilation
// must not block memo lookups for other programs. With a ProgramRef the
// pre-built bundle is fetched and sum-verified first; a fetch failure
// falls back to a local build, so the memo protocol is purely an
// optimization — unless the triggering request itself is already dead
// (its coordinator restarted mid-job, say), in which case compiling on a
// dead job's behalf would just defeat the fleet-wide build-once memo: the
// entry is dropped so the next live request re-resolves against a live
// source. The trace always decodes locally — it is derived data, far
// larger than the program, and cheap relative to shipping it.
func (s *Server) buildProgram(ctx context.Context, b *builtProgram, key string, spec JobSpec, ref *ProgramRef) {
	defer close(b.done)
	compileStart := time.Now()
	if ref != nil && ref.Source != "" && ref.Key != "" {
		if p, image, err := s.fetchProgram(ctx, ref); err == nil {
			s.programsFetched.Add(1)
			b.p, b.image = p, image
			b.compileDur = time.Since(compileStart)
		} else if ctx.Err() != nil {
			s.progMu.Lock()
			if s.progs[key] == b {
				delete(s.progs, key)
			}
			s.progMu.Unlock()
			b.err = errProgramBuildAborted
			return
		} else {
			s.log.Warn("program bundle fetch failed, building locally",
				"key", ref.Key, "source", ref.Source, "err", err)
		}
	}
	if b.p == nil {
		w, ok := workload.ByName(spec.Workload)
		if !ok {
			b.err = fmt.Errorf("unknown workload %q", spec.Workload)
			return
		}
		b.p, b.image, b.err = workload.Program(w, spec.Scale, spec.CompileOptions())
		b.compileDur = time.Since(compileStart)
		if b.err != nil {
			return
		}
		s.programsBuilt.Add(1)
	}
	// A failed trace is not an error: the run interprets lazily and
	// reports the real fault, if any.
	traceStart := time.Now()
	if tr, err := sim.BuildTrace(b.p, b.image, sim.TraceLimit); err == nil {
		b.tr = tr
	}
	b.traceDur = time.Since(traceStart)
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSweepJobs <= 0 {
		cfg.MaxSweepJobs = 4096
	}
	if cfg.Role == "" {
		cfg.Role = "standalone"
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	resultsDir := ""
	if cfg.PersistDir != "" {
		resultsDir = filepath.Join(cfg.PersistDir, "results")
		if err := os.MkdirAll(resultsDir, 0o755); err != nil {
			log.Warn("persist dir unavailable, running without persistence",
				"dir", resultsDir, "err", err)
			resultsDir = ""
		}
	}
	s := &Server{
		cfg:          cfg,
		cache:        newResultCache(cfg.MaxCacheBytes, resultsDir),
		log:          log,
		sem:          make(chan struct{}, cfg.Workers),
		flights:      make(map[string]*flight),
		fabricClient: &http.Client{Timeout: 30 * time.Second},
		start:        time.Now(),
	}
	s.metrics = newServerMetrics(s)
	return s
}

// Handler returns the service's routed handler, wrapped in the
// observability envelope (request IDs, request logs, HTTP metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/worker/health", s.handleWorkerHealth)
	mux.HandleFunc("/v1/fabric/join", s.handleFabricJoin)
	mux.HandleFunc("/v1/fabric/leave", s.handleFabricLeave)
	mux.HandleFunc("/v1/fabric/program", s.handleFabricProgram)
	mux.Handle("/metrics", s.metrics.reg.Handler())
	return s.withObs(mux)
}

// writeJSON emits v with the canonical JSON encoder.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// deadline derives the effective job context from the request timeout.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// execute runs one job under the worker pool and returns the marshaled
// canonical RunResponse. The caller has already missed the cache. key is
// the job's content address, used to label CPU profiles so pprof
// attributes simulation time to jobs. ref, when non-nil, points at a
// coordinator's pre-built program bundle.
func (s *Server) execute(ctx context.Context, spec JobSpec, key string, ref *ProgramRef) ([]byte, error) {
	tr := obs.FromContext(ctx)
	endQueue := tr.StartSpan("queue_wait")
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		endQueue()
		return nil, ctx.Err()
	}
	endQueue()
	defer func() { <-s.sem }()

	// The deadline may have expired while queued; don't start compiling
	// for a request that is already dead.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s.inFlight.Add(1)
	start := time.Now()
	defer func() {
		s.inFlight.Add(-1)
		s.metrics.jobDuration.Observe(time.Since(start).Seconds())
	}()

	hier, ok := mem.ConfigByName(spec.Hier)
	if !ok {
		return nil, fmt.Errorf("unknown hierarchy %q", spec.Hier)
	}
	p, image, simTrace, err := s.program(ctx, spec, ref, tr)
	if err != nil {
		return nil, err
	}
	m, err := sim.NewMachine(spec.Model, sim.ModelOptions{Hier: hier, MaxInsts: spec.MaxInsts})
	if err != nil {
		return nil, err
	}
	if tu, ok := m.(sim.TraceUser); ok {
		tu.UseTrace(simTrace)
	}
	s.jobsExecuted.Add(1)

	// Label the simulation for CPU profiles: `go tool pprof -tagfocus` can
	// then attribute time per job, model, or workload.
	simStart := time.Now()
	var res *sim.Result
	pprof.Do(ctx, pprof.Labels("job", key, "model", spec.Model, "workload", spec.Workload),
		func(ctx context.Context) {
			res, err = s.runModel(ctx, m, spec, p, image)
		})
	simDur := time.Since(simStart)
	if err != nil {
		s.jobsFailed.Add(1)
		s.metrics.jobs.With(spec.Model, spec.Workload, "error").Inc()
		tr.Observe("simulate", simDur)
		return nil, err
	}
	s.metrics.jobs.With(spec.Model, spec.Workload, "ok").Inc()
	res.AddPhase("simulate", simDur)
	for _, ph := range res.Phases {
		tr.Observe(ph.Name, ph.Dur)
	}

	endMarshal := tr.StartSpan("marshal")
	data, err := json.Marshal(RunResponse{SchemaVersion: APISchemaVersion, Job: spec, Stats: res.Stats})
	endMarshal()
	return data, err
}

// runModel executes the model under a panic guard: a model bug (for example
// an internal consistency check firing mid-run) fails the one job with a
// descriptive error instead of killing the process. This matters doubly for
// sweeps, whose jobs run on bare goroutines — an unrecovered panic there
// would take down the whole server.
func (s *Server) runModel(ctx context.Context, m sim.Machine, spec JobSpec, p *isa.Program, image *arch.Memory) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("model %s panicked: %v", m.Name(), r)
			reqID := ""
			if tr := obs.FromContext(ctx); tr != nil {
				reqID = tr.ID
			}
			s.log.Error("model panicked",
				"request_id", reqID,
				"model", m.Name(),
				"panic", fmt.Sprint(r))
		}
	}()
	if spec.SampleInterval > 0 {
		// Worker count stays the library default (GOMAXPROCS); it changes
		// only wall-clock time, never the result, so it is not in the spec.
		return sim.RunSampled(ctx, m, p, image, sim.SampleConfig{
			Interval: spec.SampleInterval,
			Warmup:   spec.SampleWarmup,
			Period:   spec.SamplePeriod,
		})
	}
	return m.Run(ctx, p, image)
}

// runCached returns the canonical response bytes for spec: from the result
// cache when the job already ran, from a concurrent in-flight execution when
// one exists, by executing otherwise. disp reports how the request was
// satisfied (dispHit, dispMiss, or dispCoalesced) and is counted exactly
// once per call, so the three counters always balance against request
// totals — a coalesced follower is no longer misaccounted as a miss.
func (s *Server) runCached(ctx context.Context, spec JobSpec, ref *ProgramRef) (data []byte, disp string, err error) {
	defer func() {
		switch disp {
		case dispHit:
			s.cache.hits.Add(1)
		case dispMiss:
			s.cache.misses.Add(1)
		case dispCoalesced:
			s.cache.coalesced.Add(1)
		}
	}()
	key := spec.Key()
	for {
		if data, ok := s.cache.get(key); ok {
			return data, dispHit, nil
		}

		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			// Follow the in-flight leader.
			s.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, dispCoalesced, ctx.Err()
			}
			if f.err == nil {
				return f.data, dispCoalesced, nil
			}
			// The leader failed — possibly on its own (shorter) deadline.
			// Retry from the top; this caller becomes a leader unless its
			// own context is also done.
			if err := ctx.Err(); err != nil {
				return nil, dispCoalesced, err
			}
			continue
		}
		// Re-check the cache before claiming leadership: a leader publishes
		// its bytes before removing its flight, so a request that missed
		// the first lookup but finds no flight here may already have a
		// result waiting — re-executing it would double-count a miss and
		// waste a worker.
		if data, ok := s.cache.get(key); ok {
			s.flightMu.Unlock()
			return data, dispHit, nil
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightMu.Unlock()

		if d := s.cfg.Dispatcher; d != nil {
			// Coordinator mode: the job runs on a fabric worker; the local
			// cache stores the worker's canonical bytes, so replay stays
			// byte-identical to a single-node run.
			end := obs.FromContext(ctx).StartSpan("dispatch")
			data, err = d.Dispatch(ctx, spec)
			end()
		} else {
			data, err = s.execute(ctx, spec, key, ref)
		}
		if err == nil {
			s.cache.put(key, data)
		}
		f.data, f.err = data, err
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
		return data, dispMiss, err
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, errMethodNotAllowed(http.MethodPost))
		return
	}
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, errBadBody(err))
		return
	}
	spec, err := normalize(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	tr := obs.FromContext(r.Context())
	if tr == nil {
		tr = obs.NewTrace("")
	}
	ctx, cancel := s.deadline(obs.WithTrace(r.Context(), tr), req.TimeoutMS)
	defer cancel()

	data, disp, err := s.runCached(ctx, spec, req.ProgramRef)
	status := http.StatusOK
	if err != nil {
		status = asAPIError(err).status
	}
	s.log.Info("run",
		"request_id", tr.ID,
		"workload", spec.Workload, "model", spec.Model, "hier", spec.Hier,
		"scale", spec.Scale, "max_insts", spec.MaxInsts,
		"status", status, "cache", disp,
		"dur_ms", float64(tr.Elapsed())/float64(time.Millisecond),
	)
	if err != nil {
		writeError(w, jobError(spec, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(headerCache, disp)
	w.Header().Set(headerTrace, tr.HeaderValue())
	if debugRequested(r) {
		data = withTraceSection(data, tr)
	}
	w.Write(data)
}

// handleSweep lives in sweep.go: grid planning, the buffered response, and
// the ?stream=true NDJSON writer.

// compatNames reports whether the request asked for the pre-v2 bare-name
// response shape (?compat=names).
func compatNames(r *http.Request) bool {
	return r.URL.Query().Get("compat") == "names"
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errMethodNotAllowed(http.MethodGet))
		return
	}
	if compatNames(r) {
		writeJSON(w, http.StatusOK, ModelNamesResponse{
			SchemaVersion: APISchemaVersion,
			Models:        sim.Names(),
			Hierarchies:   mem.ConfigNames(),
		})
		return
	}
	resp := ModelsResponse{SchemaVersion: APISchemaVersion}
	for _, name := range sim.Names() {
		resp.Models = append(resp.Models, ModelInfo{Name: name, Description: sim.Description(name)})
	}
	for _, name := range mem.ConfigNames() {
		resp.Hierarchies = append(resp.Hierarchies, HierarchyInfo{Name: name, Description: mem.ConfigDescription(name)})
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errMethodNotAllowed(http.MethodGet))
		return
	}
	if compatNames(r) {
		resp := WorkloadNamesResponse{SchemaVersion: APISchemaVersion}
		for _, wl := range workload.All() {
			resp.Workloads = append(resp.Workloads, wl.Name)
		}
		writeJSON(w, http.StatusOK, &resp)
		return
	}
	resp := WorkloadsResponse{SchemaVersion: APISchemaVersion}
	for _, wl := range workload.All() {
		resp.Workloads = append(resp.Workloads, WorkloadInfo{
			Name: wl.Name, Class: wl.Class, Description: wl.Description,
		})
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleWorkerHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errMethodNotAllowed(http.MethodGet))
		return
	}
	writeJSON(w, http.StatusOK, WorkerHealthResponse{
		SchemaVersion: APISchemaVersion,
		Status:        "ok",
		Role:          s.cfg.Role,
		Workers:       s.cfg.Workers,
		InFlight:      s.inFlight.Load(),
		JobsExecuted:  s.jobsExecuted.Load(),
		CacheEntries:  s.cache.len(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errMethodNotAllowed(http.MethodGet))
		return
	}
	// The percentile estimate reads the same fixed-bucket histogram that
	// /metrics exposes, replacing the old 1024-sample ring.
	const msPerSecond = 1000
	p50 := s.metrics.jobDuration.Quantile(0.50) * msPerSecond
	p99 := s.metrics.jobDuration.Quantile(0.99) * msPerSecond
	writeJSON(w, http.StatusOK, StatsResponse{
		SchemaVersion:   APISchemaVersion,
		Workers:         s.cfg.Workers,
		JobsExecuted:    s.jobsExecuted.Load(),
		JobsFailed:      s.jobsFailed.Load(),
		CacheHits:       s.cache.hits.Load(),
		CacheMisses:     s.cache.misses.Load(),
		CacheCoalesced:  s.cache.coalesced.Load(),
		CacheEvictions:  s.cache.evictions.Load(),
		CacheEntries:    s.cache.len(),
		CacheBytes:      s.cache.bytes(),
		InFlight:        s.inFlight.Load(),
		ProgramsBuilt:   s.programsBuilt.Load(),
		ProgramsFetched: s.programsFetched.Load(),
		LatencyP50MS:    p50,
		LatencyP99MS:    p99,
		UptimeSeconds:   time.Since(s.start).Seconds(),
	})
}
