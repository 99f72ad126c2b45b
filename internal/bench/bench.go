// Package bench is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (§5) on the synthetic workload suite.
//
//	Figure6  normalized execution cycles and stall breakdown for the
//	         in-order baseline, multipass, and ideal out-of-order machines
//	Figure7  multipass and out-of-order speedups under three cache
//	         hierarchies (base, config1, config2)
//	Figure8  percent of the full multipass speedup retained without issue
//	         regrouping and without advance restart
//	Table1   peak and average power ratios of out-of-order vs multipass
//	         structures, using activity from the Figure 6 runs
//	Extras   the §5.2 realistic out-of-order comparison and the §5.4
//	         Dundas-Mudge runahead comparison
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"multipass/internal/arch"
	"multipass/internal/compile"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
	"multipass/internal/workload"

	// Link the evaluation's timing models into the sim registry. The
	// harness constructs them by name; nothing here references the
	// packages directly (studies.go uses core's config types).
	_ "multipass/internal/pipe/cgooo"
	_ "multipass/internal/pipe/inorder"
	_ "multipass/internal/pipe/ooo"
	_ "multipass/internal/pipe/runahead"
)

// ModelName identifies one timing model in experiment output.
type ModelName string

// The machine models of the evaluation.
const (
	MInorder     ModelName = "inorder"
	MMultipass   ModelName = "multipass"
	MNoRegroup   ModelName = "multipass-noregroup"
	MNoRestart   ModelName = "multipass-norestart"
	MRunahead    ModelName = "runahead"
	MOOO         ModelName = "ooo"
	MOOORealistc ModelName = "ooo-realistic"
	MCGOoO       ModelName = "cgooo"
)

// NewMachine constructs the named model over the given hierarchy, via the
// sim registry the model packages register themselves into.
func NewMachine(name ModelName, hier mem.HierConfig) (sim.Machine, error) {
	return NewMachineOpts(name, sim.ModelOptions{Hier: hier})
}

// NewMachineOpts constructs the named model with full per-run options, for
// callers that vary more than the hierarchy (e.g. DisableSkip).
func NewMachineOpts(name ModelName, opts sim.ModelOptions) (sim.Machine, error) {
	return sim.NewMachine(string(name), opts)
}

// Run compiles one workload (paper-standard compiler options: scheduling and
// RESTART insertion on) and runs it on one model. The same binary is used
// for every model, as in the paper.
func Run(ctx context.Context, name ModelName, w workload.Workload, scale int, hier mem.HierConfig) (*sim.Result, error) {
	p, image, err := workload.Program(w, scale, compile.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return runProgram(ctx, name, p, image, decodeTrace(p, image), sim.ModelOptions{Hier: hier})
}

// decodeTrace pre-decodes a program once for read-only sharing across models.
// Any failure (too long, interpreter fault) degrades to the lazy path, where
// the run will produce the real error if there is one.
func decodeTrace(p *isa.Program, image *arch.Memory) *sim.Trace {
	tr, err := sim.BuildTrace(p, image, sim.TraceLimit)
	if err != nil {
		return nil
	}
	return tr
}

// Prepared is one compiled workload plus its pre-decoded oracle trace, for
// callers (throughput benchmarks, benchsnap) that run many models or many
// repetitions over the same binary without paying compilation or decoding
// inside the measured region.
type Prepared struct {
	P     *isa.Program
	Image *arch.Memory
	Tr    *sim.Trace
}

// Prepare compiles the workload with the paper-standard options and
// pre-decodes its trace.
func Prepare(w workload.Workload, scale int) (*Prepared, error) {
	p, image, err := workload.Program(w, scale, compile.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Prepared{P: p, Image: image, Tr: decodeTrace(p, image)}, nil
}

// Run executes one model over the prepared binary.
func (pr *Prepared) Run(ctx context.Context, name ModelName, hier mem.HierConfig) (*sim.Result, error) {
	return runProgram(ctx, name, pr.P, pr.Image, pr.Tr, sim.ModelOptions{Hier: hier})
}

// RunOpts executes one model over the prepared binary with full per-run
// options (hierarchy, instruction limit, DisableSkip).
func (pr *Prepared) RunOpts(ctx context.Context, name ModelName, opts sim.ModelOptions) (*sim.Result, error) {
	return runProgram(ctx, name, pr.P, pr.Image, pr.Tr, opts)
}

// RunSampled executes one model over the prepared binary with SMARTS-style
// interval sampling: checkpointed intervals simulated in parallel and
// stitched into one result (see sim.RunSampled).
func (pr *Prepared) RunSampled(ctx context.Context, name ModelName, opts sim.ModelOptions, scfg sim.SampleConfig) (*sim.Result, error) {
	m, err := NewMachineOpts(name, opts)
	if err != nil {
		return nil, err
	}
	if tu, ok := m.(sim.TraceUser); ok {
		tu.UseTrace(pr.Tr)
	}
	res, err := sim.RunSampled(ctx, m, pr.P, pr.Image, scfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	return res, nil
}

func runProgram(ctx context.Context, name ModelName, p *isa.Program, image *arch.Memory, tr *sim.Trace, opts sim.ModelOptions) (*sim.Result, error) {
	m, err := NewMachineOpts(name, opts)
	if err != nil {
		return nil, err
	}
	if tu, ok := m.(sim.TraceUser); ok {
		tu.UseTrace(tr)
	}
	res, err := m.Run(ctx, p, image)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	return res, nil
}

// cell is one (workload, model) measurement.
type cell struct {
	Workload string
	Model    ModelName
	Hier     string
	Result   *sim.Result
	Err      error
}

// runMatrix executes every (workload, model, hierarchy) combination
// concurrently, compiling each workload once per hierarchy.
func runMatrix(ctx context.Context, ws []workload.Workload, models []ModelName, hiers map[string]mem.HierConfig, scale int) (map[string]*sim.Result, error) {
	type job struct {
		w     workload.Workload
		model ModelName
		hname string
	}
	var jobs []job
	for _, w := range ws {
		for hname := range hiers {
			for _, m := range models {
				jobs = append(jobs, job{w, m, hname})
			}
		}
	}

	// Share one compiled program+image per workload (images are cloned by
	// the machines, so reuse is safe), plus one pre-decoded trace consulted
	// read-only by every model.
	type built struct {
		p     *isa.Program
		image *arch.Memory
		tr    *sim.Trace
	}
	programs := make(map[string]built, len(ws))
	for _, w := range ws {
		p, image, err := workload.Program(w, scale, compile.DefaultOptions())
		if err != nil {
			return nil, err
		}
		programs[w.Name] = built{p, image, decodeTrace(p, image)}
	}

	results := make(map[string]*sim.Result, len(jobs))
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b := programs[j.w.Name]
			res, err := runProgram(ctx, j.model, b.p, b.image, b.tr, sim.ModelOptions{Hier: hiers[j.hname]})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s/%s/%s: %w", j.w.Name, j.model, j.hname, err)
				}
				return
			}
			results[key(j.w.Name, j.model, j.hname)] = res
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

func key(w string, m ModelName, h string) string { return w + "/" + string(m) + "/" + h }

// speedup returns base cycles / other cycles.
func speedup(base, other *sim.Result) float64 {
	if other.Stats.Cycles == 0 {
		return 0
	}
	return float64(base.Stats.Cycles) / float64(other.Stats.Cycles)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
