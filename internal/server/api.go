package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"multipass/internal/compile"
	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"
)

// APISchemaVersion versions every response body of the v1 endpoints, echoed
// both in the schema_version body field and the Mpsimd-Api-Version response
// header. Bump on any wire-visible change.
//
// v2: uniform error envelope with stable codes; /v1/models and
// /v1/workloads return objects (?compat=names restores v1 shapes);
// /v1/sweep?stream=true NDJSON; /v1/worker/health.
const APISchemaVersion = 2

// HeaderAPIVersion is stamped on every /v1/* response so clients can detect
// the schema without parsing a body.
const HeaderAPIVersion = "Mpsimd-Api-Version"

// CompileOverrides is the subset of compiler options a request may vary.
// Nil fields keep the paper-standard defaults, so the canonical form of an
// untouched request equals the canonical form of an explicit-default one.
type CompileOverrides struct {
	// Schedule toggles list scheduling into issue groups.
	Schedule *bool `json:"schedule,omitempty"`
	// InsertRestarts toggles the §3.3 critical-load RESTART insertion.
	InsertRestarts *bool `json:"insert_restarts,omitempty"`
	// Unroll overrides the unrolling factor (0 or 1 disables).
	Unroll *int `json:"unroll,omitempty"`
}

// SampleOverrides opts a request into SMARTS-style interval sampling: the
// job is checkpointed by a fast functional pass and its intervals simulate
// in parallel, with warm-up stats discarded. Retired counts and final
// architectural state are exact; cycle counts carry a small documented error
// (see DESIGN.md §8), which is why sampling is part of the job identity.
type SampleOverrides struct {
	// Interval is the checkpoint spacing in retired instructions; it must
	// be at least MinSampleInterval (every checkpoint holds warm cache tags
	// and a memory image, so a tiny interval on a long workload is a memory
	// bomb).
	Interval uint64 `json:"interval"`
	// Warmup is the detailed warm-up length before each interval, whose
	// stats are discarded; 0 means interval/4 (filled during
	// normalization, so explicit and defaulted forms share a cache key).
	Warmup uint64 `json:"warmup,omitempty"`
	// Period > 1 selects sparse SMARTS measurement: only every Period-th
	// interval is simulated and the cycle counts are extrapolated (retired
	// count and final state stay exact). 0 and 1 both mean full coverage
	// and normalize identically.
	Period uint64 `json:"period,omitempty"`
}

// MinSampleInterval floors sample.interval: each checkpoint carries warm
// cache tags and a memory image (a copy-on-write clone, so it holds its
// own copy only of the pages written since the previous checkpoint), and
// the interval count is what bounds how many of those a single request can
// make the server materialize.
const MinSampleInterval = 1024

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Workload string `json:"workload"`
	Model    string `json:"model"`
	// Hier names the cache hierarchy (default "base").
	Hier string `json:"hier,omitempty"`
	// Scale multiplies the workload's dynamic length (default 1).
	Scale   int               `json:"scale,omitempty"`
	Compile *CompileOverrides `json:"compile,omitempty"`
	// MaxInsts, when nonzero, caps the dynamic instruction count.
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// Sample, when non-nil, runs the job with interval sampling.
	Sample *SampleOverrides `json:"sample,omitempty"`
	// TimeoutMS bounds this request's simulation time; 0 uses the server
	// default. The timeout is not part of the job identity.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// ProgramRef, when non-nil, points at a pre-built program bundle the
	// executing server may fetch instead of compiling the workload itself.
	// It is transport metadata from the fabric coordinator — never part of
	// the job identity, and ignored when the fetch fails (the server just
	// builds locally).
	ProgramRef *ProgramRef `json:"program_ref,omitempty"`
}

// ProgramRef identifies a shared program bundle: where to fetch it
// (GET {Source}/v1/fabric/program?key={Key}) and the SHA-256 the fetched
// bytes must hash to. The key is the program identity — the job fields
// that determine the compiled binary (see ProgramKey).
type ProgramRef struct {
	Source string `json:"source"`
	Key    string `json:"key"`
	Sum    string `json:"sum"`
}

// JobSpec is the canonical, fully-defaulted identity of one simulation job:
// the tuple the result cache is keyed on. Two requests that normalize to the
// same JobSpec are the same job and share one cached result.
type JobSpec struct {
	Workload       string `json:"workload"`
	Model          string `json:"model"`
	Hier           string `json:"hier"`
	Scale          int    `json:"scale"`
	Schedule       bool   `json:"schedule"`
	InsertRestarts bool   `json:"insert_restarts"`
	Unroll         int    `json:"unroll"`
	MaxInsts       uint64 `json:"max_insts"`
	// SampleInterval/SampleWarmup are zero for monolithic jobs and omitted
	// from the canonical encoding, so every pre-sampling job key (and its
	// cached bytes) is unchanged. Worker parallelism is a wall-clock knob,
	// not part of the result, so it is deliberately not in the identity.
	SampleInterval uint64 `json:"sample_interval,omitempty"`
	SampleWarmup   uint64 `json:"sample_warmup,omitempty"`
	// SamplePeriod is > 1 for sparse measurement and omitted otherwise
	// (full coverage is the canonical form of period 0 and 1 alike).
	SamplePeriod uint64 `json:"sample_period,omitempty"`
}

// Key returns the content address of the job: the hex SHA-256 of the
// canonical JSON encoding of the spec.
func (j JobSpec) Key() string {
	data, err := json.Marshal(j)
	if err != nil {
		// JobSpec is a flat struct of marshalable fields; this cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// CompileOptions materializes the spec's compiler configuration.
func (j JobSpec) CompileOptions() compile.Options {
	opts := compile.DefaultOptions()
	opts.Schedule = j.Schedule
	opts.InsertRestarts = j.InsertRestarts
	opts.Unroll = j.Unroll
	return opts
}

// RunRequest returns the request whose normalization reproduces this spec
// exactly: every field explicit, no defaults left to fill. The fabric
// coordinator serializes this to dispatch a job to a worker, and the
// canonical-form property guarantees the worker computes the same job key.
func (j JobSpec) RunRequest() RunRequest {
	schedule, restarts, unroll := j.Schedule, j.InsertRestarts, j.Unroll
	req := RunRequest{
		Workload: j.Workload,
		Model:    j.Model,
		Hier:     j.Hier,
		Scale:    j.Scale,
		Compile: &CompileOverrides{
			Schedule:       &schedule,
			InsertRestarts: &restarts,
			Unroll:         &unroll,
		},
		MaxInsts: j.MaxInsts,
	}
	if j.SampleInterval > 0 {
		req.Sample = &SampleOverrides{Interval: j.SampleInterval, Warmup: j.SampleWarmup, Period: j.SamplePeriod}
	}
	return req
}

// normalize validates a RunRequest against the registries and returns its
// canonical JobSpec.
func normalize(req *RunRequest) (JobSpec, error) {
	def := compile.DefaultOptions()
	spec := JobSpec{
		Workload:       req.Workload,
		Model:          req.Model,
		Hier:           req.Hier,
		Scale:          req.Scale,
		Schedule:       def.Schedule,
		InsertRestarts: def.InsertRestarts,
		Unroll:         def.Unroll,
		MaxInsts:       req.MaxInsts,
	}
	if spec.Hier == "" {
		spec.Hier = "base"
	}
	if spec.Scale == 0 {
		spec.Scale = 1
	}
	if c := req.Compile; c != nil {
		if c.Schedule != nil {
			spec.Schedule = *c.Schedule
		}
		if c.InsertRestarts != nil {
			spec.InsertRestarts = *c.InsertRestarts
		}
		if c.Unroll != nil {
			spec.Unroll = *c.Unroll
		}
	}

	if spec.Workload == "" {
		return spec, apiErrorf(http.StatusBadRequest, CodeMissingWorkload,
			"see /v1/workloads", "missing workload")
	}
	if _, ok := workload.ByName(spec.Workload); !ok {
		return spec, apiErrorf(http.StatusBadRequest, CodeUnknownWorkload,
			"see /v1/workloads", "unknown workload %q", spec.Workload)
	}
	if spec.Model == "" {
		return spec, apiErrorf(http.StatusBadRequest, CodeMissingModel,
			"see /v1/models", "missing model")
	}
	if _, ok := sim.Lookup(spec.Model); !ok {
		return spec, apiErrorf(http.StatusBadRequest, CodeUnknownModel,
			"see /v1/models", "unknown model %q (see /v1/models)", spec.Model)
	}
	if _, ok := mem.ConfigByName(spec.Hier); !ok {
		return spec, apiErrorf(http.StatusBadRequest, CodeUnknownHier,
			fmt.Sprintf("have %v", mem.ConfigNames()),
			"unknown hierarchy %q (have %v)", spec.Hier, mem.ConfigNames())
	}
	if spec.Scale < 1 {
		return spec, apiErrorf(http.StatusBadRequest, CodeBadScale, "scale must be >= 1",
			"scale %d < 1", spec.Scale)
	}
	if spec.Unroll < 0 {
		return spec, apiErrorf(http.StatusBadRequest, CodeBadUnroll, "unroll must be >= 0",
			"unroll %d < 0", spec.Unroll)
	}
	if sa := req.Sample; sa != nil {
		if sa.Interval < MinSampleInterval {
			return spec, apiErrorf(http.StatusBadRequest, CodeBadSample,
				fmt.Sprintf("sample.interval must be >= %d", MinSampleInterval),
				"sample interval %d < %d", sa.Interval, MinSampleInterval)
		}
		spec.SampleInterval = sa.Interval
		spec.SampleWarmup = sa.Warmup
		if spec.SampleWarmup == 0 {
			// Canonical fill: an explicit interval/4 and the default are the
			// same job and must share a cache key.
			spec.SampleWarmup = sa.Interval / 4
		}
		if sa.Period > 1 {
			// Period 0 and 1 both mean full coverage; only sparse periods
			// enter the identity, so their canonical form stays the zero
			// value and pre-period cache keys are unchanged.
			spec.SamplePeriod = sa.Period
		}
	}
	if req.TimeoutMS < 0 {
		return spec, apiErrorf(http.StatusBadRequest, CodeBadTimeout, "timeout_ms must be >= 0",
			"timeout_ms %d < 0", req.TimeoutMS)
	}
	return spec, nil
}

// RunResponse is the body of POST /v1/run — and exactly the bytes the result
// cache stores, so a cache hit replays a byte-identical body.
type RunResponse struct {
	SchemaVersion int       `json:"schema_version"`
	Job           JobSpec   `json:"job"`
	Stats         sim.Stats `json:"stats"`
}

// SweepRequest is the body of POST /v1/sweep: the cross product of the three
// axes. Empty axes default to everything the registries enumerate.
type SweepRequest struct {
	Workloads []string          `json:"workloads,omitempty"`
	Models    []string          `json:"models,omitempty"`
	Hiers     []string          `json:"hiers,omitempty"`
	Scale     int               `json:"scale,omitempty"`
	Compile   *CompileOverrides `json:"compile,omitempty"`
	MaxInsts  uint64            `json:"max_insts,omitempty"`
	// Sample applies interval sampling to every cell of the grid.
	Sample *SampleOverrides `json:"sample,omitempty"`
	// TimeoutMS bounds the whole sweep; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Sweep job statuses.
const (
	JobDone   = "done"   // executed by this request
	JobCached = "cached" // served from the result cache
	JobFailed = "failed" // error reported in Error
)

// SweepJob is one cell of a sweep result.
type SweepJob struct {
	Job    JobSpec    `json:"job"`
	Status string     `json:"status"`
	Error  string     `json:"error,omitempty"`
	Stats  *sim.Stats `json:"stats,omitempty"`
}

// SweepSummary accounts for every job of a sweep: Total = Done+Cached+Failed.
type SweepSummary struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
}

// SweepResponse is the body of POST /v1/sweep.
type SweepResponse struct {
	SchemaVersion int          `json:"schema_version"`
	Jobs          []SweepJob   `json:"jobs"`
	Summary       SweepSummary `json:"summary"`
}

// Stream record types for /v1/sweep?stream=true.
const (
	StreamRecordJob     = "job"     // one completed sweep cell
	StreamRecordSummary = "summary" // the terminating accounting record
)

// SweepStreamRecord is one newline-delimited JSON record of a streaming
// sweep: a "job" record per cell, in completion order, terminated by
// exactly one "summary" record. The buffered (non-stream) response remains
// index-ordered and byte-identical to a single-node run.
type SweepStreamRecord struct {
	SchemaVersion int    `json:"schema_version"`
	Type          string `json:"type"`
	// Index is the cell's position in the request grid (job records only);
	// a streaming client can reassemble request order from it.
	Index     *int          `json:"index,omitempty"`
	*SweepJob               // job, status, error, stats — flattened into the record
	Summary   *SweepSummary `json:"summary,omitempty"`
	// Workers reports per-worker job dispositions for this sweep: the
	// fabric workers in coordinator mode, a single "local" entry otherwise.
	Workers map[string]WorkerDisposition `json:"workers,omitempty"`
}

// WorkerDisposition accounts for one worker's share of dispatched jobs.
// Dispatched = Completed + RetriedSuccess + Failed once a sweep settles
// (attributed to the worker that ultimately resolved the job). Departed
// fleet members keep their rows with Member false so deltas stay
// consistent across churn.
type WorkerDisposition struct {
	Healthy bool `json:"healthy"`
	// Member reports whether the worker is currently in the fleet.
	// Standalone-mode "local" dispositions are always members.
	Member         bool   `json:"member"`
	Dispatched     uint64 `json:"dispatched"`
	Completed      uint64 `json:"completed"`
	Retried        uint64 `json:"retried"`
	RetriedSuccess uint64 `json:"retried_success"`
	Failed         uint64 `json:"failed"`
	// Stolen counts jobs this worker's coordinator-side runners pulled
	// from another worker's backlog (work stealing).
	Stolen uint64 `json:"stolen"`
}

// JoinRequest is the body of POST /v1/fabric/join and /v1/fabric/leave:
// the worker's externally reachable base URL.
type JoinRequest struct {
	URL string `json:"url"`
}

// JoinResponse is the body of POST /v1/fabric/join: the lease the worker
// must renew within (renewal is another join) and the member list after
// the join.
type JoinResponse struct {
	SchemaVersion int      `json:"schema_version"`
	TTLMS         int64    `json:"ttl_ms"`
	Members       []string `json:"members"`
}

// ModelInfo describes one timing model in GET /v1/models.
type ModelInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// HierarchyInfo describes one named cache hierarchy in GET /v1/models.
type HierarchyInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// ModelsResponse is the body of GET /v1/models, enumerated from the sim
// registry. With ?compat=names the endpoint serves ModelNamesResponse
// (the v1 shape) instead.
type ModelsResponse struct {
	SchemaVersion int             `json:"schema_version"`
	Models        []ModelInfo     `json:"models"`
	Hierarchies   []HierarchyInfo `json:"hierarchies"`
}

// ModelNamesResponse is the ?compat=names body of GET /v1/models: bare
// name arrays, as served before schema v2.
type ModelNamesResponse struct {
	SchemaVersion int      `json:"schema_version"`
	Models        []string `json:"models"`
	Hierarchies   []string `json:"hierarchies"`
}

// WorkloadInfo describes one kernel in GET /v1/workloads.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Description string `json:"description"`
}

// WorkloadsResponse is the body of GET /v1/workloads. With ?compat=names
// the endpoint serves WorkloadNamesResponse instead.
type WorkloadsResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Workloads     []WorkloadInfo `json:"workloads"`
}

// WorkloadNamesResponse is the ?compat=names body of GET /v1/workloads:
// a bare name array.
type WorkloadNamesResponse struct {
	SchemaVersion int      `json:"schema_version"`
	Workloads     []string `json:"workloads"`
}

// WorkerHealthResponse is the body of GET /v1/worker/health: the liveness
// surface a fabric coordinator probes on its workers.
type WorkerHealthResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Status        string `json:"status"` // "ok" while serving
	Role          string `json:"role"`   // "standalone", "worker", or "coordinator"
	// Workers is the worker-pool size (max concurrently executing jobs).
	Workers       int     `json:"workers"`
	InFlight      int64   `json:"in_flight"`
	JobsExecuted  uint64  `json:"jobs_executed"`
	CacheEntries  int     `json:"cache_entries"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// StatsResponse is the body of GET /v1/stats: server-level metrics.
type StatsResponse struct {
	SchemaVersion int `json:"schema_version"`
	// Workers is the worker-pool size.
	Workers int `json:"workers"`
	// JobsExecuted counts simulations actually run (cache misses).
	JobsExecuted uint64 `json:"jobs_executed"`
	// JobsFailed counts executed simulations that returned an error.
	JobsFailed uint64 `json:"jobs_failed"`
	// CacheHits, CacheMisses, and CacheCoalesced partition every request
	// that reached the cache layer: served from cache, executed, or joined
	// an in-flight execution of the same job. They sum to the request
	// total.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheCoalesced uint64 `json:"cache_coalesced"`
	// CacheEvictions counts entries evicted by the byte-budget clock.
	CacheEvictions uint64 `json:"cache_evictions"`
	// CacheEntries is the current number of cached results.
	CacheEntries int `json:"cache_entries"`
	// CacheBytes is the cache footprint charged against MaxCacheBytes.
	CacheBytes int64 `json:"cache_bytes"`
	// InFlight is the number of simulations executing right now.
	InFlight int64 `json:"in_flight"`
	// ProgramsBuilt counts workload compilations this server performed
	// itself; ProgramsFetched counts program bundles it fetched pre-built
	// from a fabric coordinator instead. On a well-memoized fleet the
	// workers' built count stays 0 for dispatched work.
	ProgramsBuilt   uint64 `json:"programs_built"`
	ProgramsFetched uint64 `json:"programs_fetched"`
	// LatencyP50MS/LatencyP99MS summarize executed-job wall time over a
	// sliding window of recent jobs.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	// UptimeSeconds since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ErrorDetail is the uniform error envelope payload: a stable
// machine-readable code, a human-readable message (which keeps the
// quoted-name convention, e.g. `unknown model "oooo"`), and an optional
// hint pointing at how to fix the request.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Hint    string `json:"hint,omitempty"`
}

// ErrorResponse is the body of every non-2xx response from a /v1/*
// endpoint: {"error": {"code": ..., "message": ..., "hint": ...}}.
type ErrorResponse struct {
	SchemaVersion int         `json:"schema_version"`
	Error         ErrorDetail `json:"error"`
}
