package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
)

// fullROBSrc is a loop of independent loads, one per 128-byte line that no
// earlier iteration touched, padded with independent work. Its first load
// is at sequence 9 and every 9th sequence after, so an interval of a
// multiple of 9 instructions starts on a load that misses to memory while
// the machine fetches past it.
const fullROBSrc = `
	movi r1 = 4096
	movi r4 = 300
	movi r5 = 0
	movi r6 = 0
	movi r7 = 0
	movi r8 = 0
	movi r9 = 0
	movi r10 = 0
	movi r11 = 0
loop:
	ld4 r2 = [r1+0]
	addi r1 = r1, 128
	addi r5 = r5, 1
	addi r6 = r6, 1
	addi r7 = r7, 1
	addi r8 = r8, 1
	subi r4 = r4, 1
	cmpi.ne p1, p2 = r4, 0
	(p1) br loop
	halt
`

// lookaheadCuts is how many intervals per model and program
// TestLookaheadBound reruns on cut recordings, spread evenly over the
// stream; a bisection costs up to a dozen interval runs.
const lookaheadCuts = 4

// TestLookaheadBound pins each model's declared lookahead L
// (CheckpointSpec.Lookahead), the span past an interval's End that the
// functional pass records for it. Every registered model runs every
// interval of mcf and art at the sampling tests' configuration, and of
// fullROBSrc with intervals of 261 instructions that start on a missing
// load. Each interval must run on the pass's recording, which stops at
// End+L, so the model requests no sequence at or beyond End+L. On
// lookaheadCuts intervals of each program an interval must fail with the
// recording error when its recording stops one event short of a sequence
// the model requests: End-1, the last one the interval measures, and on
// art and fullROBSrc M, the highest sequence requested, which the test
// bisects for. In fullROBSrc, ooo's reorder buffer fills at the
// interval's end: an interval is 5 instructions longer than the buffer, so
// ROBFullCy > 0 means the buffer was full with at most 5 instructions left
// to insert. cgooo's block windows fill there too.
func TestLookaheadBound(t *testing.T) {
	robProg := isa.MustAssemble(fullROBSrc)
	robPr := &Prepared{P: robProg, Image: arch.NewMemory()}
	sampling := sim.SampleConfig{Interval: sampleTestInterval, Warmup: sampleTestInterval / 4}
	cases := []struct {
		name   string
		pr     *Prepared
		cfg    sim.SampleConfig
		bisect bool
	}{
		{"mcf", mustPrepare(t, "mcf", sampleTestScale), sampling, false},
		{"art", mustPrepare(t, "art", sampleTestScale), sampling, true},
		{"full-rob", robPr, sim.SampleConfig{Interval: 9 * 29}, true},
	}
	var (
		mu    sync.Mutex
		reach = map[string]uint64{} // model -> max of M+1-End over bisected intervals
		full  = map[string]bool{}   // model -> a full-rob interval filled its window
	)
	t.Run("group", func(t *testing.T) {
		for _, tc := range cases {
			for _, model := range sim.Names() {
				t.Run(tc.name+"/"+model, func(t *testing.T) {
					t.Parallel()
					ctx := context.Background()
					m, err := NewMachineOpts(ModelName(model), sim.ModelOptions{Hier: mem.BaseConfig()})
					if err != nil {
						t.Fatal(err)
					}
					ir := m.(sim.IntervalRunner)
					spec := ir.CheckpointSpec()
					cks, _, err := drainCheckpoints(ctx, tc.pr, tc.cfg, spec)
					if err != nil {
						t.Fatal(err)
					}
					// run simulates ck on its recording cut before seq cut.
					run := func(ck *sim.Checkpoint, cut uint64) error {
						c := *ck
						c.Events, c.Final = ck.Events[:cut-ck.Seq], nil
						_, err := ir.RunInterval(ctx, tc.pr.P, tc.pr.Image, &c)
						return err
					}
					stride := max(1, len(cks)/lookaheadCuts)
					for i, ck := range cks {
						res, err := ir.RunInterval(ctx, tc.pr.P, tc.pr.Image, ck)
						if err != nil {
							t.Fatalf("interval at %d: %v", ck.Seq, err)
						}
						mu.Lock()
						if tc.name == "full-rob" && (res.Stats.OOO.ROBFullCy > 0 || res.Stats.CGOOO.WindowFullCy > 0) {
							full[model] = true
						}
						mu.Unlock()
						if ck.Final != nil {
							continue // the halt, not the recording, ends its reads
						}
						if got, want := uint64(len(ck.Events)), ck.End+spec.Lookahead-ck.Seq; got != want {
							t.Fatalf("interval at %d: recording of %d events, want %d", ck.Seq, got, want)
						}
						if i%stride != 0 {
							continue
						}
						// The model requests End-1, and the pass's recording,
						// cut at End+L, is enough. Bisect for the smallest cut
						// that is: one past M.
						lo, hi := ck.End-1, ck.End+spec.Lookahead
						loErr := run(ck, lo)
						for tc.bisect && hi-lo > 1 {
							mid := lo + (hi-lo)/2
							if err := run(ck, mid); err != nil {
								lo, loErr = mid, err
							} else {
								hi = mid
							}
						}
						want := fmt.Sprintf("past the interval's recording, which ends before seq %d", lo)
						if loErr == nil || !strings.Contains(loErr.Error(), want) {
							t.Fatalf("interval at %d cut before seq %d: error %v, want the recording error", ck.Seq, lo, loErr)
						}
						if tc.bisect {
							mu.Lock()
							reach[model] = max(reach[model], hi-ck.End)
							mu.Unlock()
						}
					}
				})
			}
		}
	})
	var names []string
	for model := range reach {
		names = append(names, model)
	}
	sort.Strings(names)
	for _, model := range names {
		m, _ := NewMachineOpts(ModelName(model), sim.ModelOptions{Hier: mem.BaseConfig()})
		t.Logf("%-20s reads up to End%+d of L = %d", model, int64(reach[model])-1, m.(sim.IntervalRunner).CheckpointSpec().Lookahead)
	}
	if !full["ooo"] {
		t.Error("no full-rob interval filled ooo's reorder buffer")
	}
	if !full["cgooo"] {
		t.Error("no full-rob interval filled cgooo's block windows")
	}
}
