package main

import (
	"math/rand"

	"multipass/internal/mem"
	"multipass/internal/server"
)

// The service workload follows the one use of the service the repository
// documents (EXPERIMENTS.md, "Figure 7 over HTTP"; README.md, /v1/run): a
// client posts a /v1/sweep that crosses models with the three named
// hierarchies, then re-issues the sweep or any overlapping /v1/run, which
// the content-addressed result cache serves. The documented sweep's models:
var sessionModels = []string{"inorder", "multipass", "ooo"}

// freshBase makes a session's grid new to the server: the k-th session caps
// its cells at freshBase+k instructions. freshBase exceeds every scale-1
// kernel's dynamic length (TestFreshLimitAboveKernelLength), so the cap
// never fires and the statistics equal the goldens, but every session's
// cells have their own cache keys and take the simulate-and-marshal path.
const freshBase = 1 << 23

// session is one round of the documented use: a sweep whose cells the
// server has not seen, the same sweep re-issued, and a /v1/run of every
// cell of its grid.
type session struct {
	sweep server.SweepRequest
	runs  []server.RunRequest
}

// sessions draws the service workload's sessions from a seed: the kernel
// order of each sweep and the order of its re-runs.
type sessions struct {
	rng     *rand.Rand
	kernels []string
	n       uint64 // sessions drawn so far
}

func newSessions(seed int64, kernels []string) *sessions {
	return &sessions{rng: rand.New(rand.NewSource(seed)), kernels: kernels}
}

func (s *sessions) next() session {
	kernels := append([]string(nil), s.kernels...)
	s.rng.Shuffle(len(kernels), func(i, j int) { kernels[i], kernels[j] = kernels[j], kernels[i] })
	sw := server.SweepRequest{Workloads: kernels, Models: sessionModels, Hiers: mem.ConfigNames(), MaxInsts: freshBase + s.n}
	s.n++
	var runs []server.RunRequest
	for _, k := range sw.Workloads {
		for _, h := range sw.Hiers {
			for _, m := range sw.Models {
				runs = append(runs, server.RunRequest{Workload: k, Model: m, Hier: h, MaxInsts: sw.MaxInsts})
			}
		}
	}
	s.rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return session{sweep: sw, runs: runs}
}
