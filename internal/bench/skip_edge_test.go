package bench

import (
	"context"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/mem"
	"multipass/internal/sim"
)

// skipEdgeCases are small programs whose stalls sit on the edges of
// idle-cycle skipping. They fit every model, so each runs on every
// registered model.
var skipEdgeCases = []struct {
	name  string
	src   string
	setup func(*arch.Memory)
	check func(t *testing.T, model string, res *sim.Result)
}{
	{
		// Each iteration stalls on a cold load, and the loaded value steers
		// a branch whose direction alternates, so the cycle a skip lands on
		// (the fill completion) resolves a mispredicting branch: a fetch
		// redirect, and for cgooo a block squash. The predictor's and the
		// squash counters must be skip-exact.
		name: "redirect_on_fill",
		src: `
	movi r2 = 0x1000
	movi r3 = 40
	movi r1 = 0
loop:
	ld4 r4 = [r2] ;;
	cmpi.ne p1, p2 = r4, 0 ;;
	(p1) br odd
	addi r1 = r1, 100 ;;
	br next
odd:
	addi r1 = r1, 1 ;;
next:
	addi r2 = r2, 4096
	subi r3 = r3, 1
	cmpi.ne p3, p4 = r3, 0 ;;
	(p3) br loop
	halt
`,
		setup: func(m *arch.Memory) {
			// Stride-4096 nodes (always a cold line) holding 0,1,0,1,...
			for i := 0; i < 40; i++ {
				m.Store(uint32(0x1000+4096*i), 4, uint64(i%2))
			}
		},
		check: func(t *testing.T, model string, res *sim.Result) {
			if got := res.RF.Read(isa.IntReg(1)).Uint32(); got != 20*100+20*1 {
				t.Errorf("r1 = %d, want %d", got, 20*100+20*1)
			}
			if res.Stats.Branch.Mispredicts == 0 {
				t.Error("no mispredictions: the redirect path was not exercised")
			}
			if model == string(MCGOoO) && res.Stats.CGOOO.BlockSquashes == 0 {
				t.Error("no block squashes on an alternating branch")
			}
			if res.Stats.Cat[sim.StallLoad] == 0 {
				t.Error("no load-stall cycles: nothing for the skip to fast-forward")
			}
		},
	},
	{
		// Back-to-back dependent single-cycle latencies and an L1-hitting
		// load give wake targets of now+1: the degenerate one-cycle jump.
		name: "single_cycle_stall",
		src: `
	movi r2 = 0x1000
	st4 [r2] = r2 ;;
	ld4 r1 = [r2] ;;
	add r3 = r1, r1 ;;
	add r4 = r3, r3 ;;
	mul r5 = r4, r4 ;;
	add r6 = r5, r5 ;;
	halt
`,
	},
	{
		// A pointer chase across cold lines: the longest quiescent stalls a
		// model sees, every one bulk-credited to the load category (and for
		// cgooo to the occupancy integral) exactly as ticking would.
		name: "quiescent_chase",
		src: `
	movi r1 = 0x1000
	movi r3 = 100
loop:
	ld4 r1 = [r1]
	subi r3 = r3, 1
	cmpi.ne p1, p2 = r3, 0 ;;
	(p1) br loop
	halt
`,
		setup: func(m *arch.Memory) {
			addr := uint32(0x1000)
			for i := 0; i < 110; i++ {
				nxt := addr + 4096
				m.Store(addr, 4, uint64(nxt))
				addr = nxt
			}
		},
		check: func(t *testing.T, model string, res *sim.Result) {
			if ld := res.Stats.Cat[sim.StallLoad]; ld < res.Stats.Cycles/2 {
				t.Errorf("load stalls %d of %d cycles; chase should be load-dominated", ld, res.Stats.Cycles)
			}
		},
	},
}

// TestSkipEdgeCases runs every skip-edge program on every registered model
// with idle-cycle skipping on and off; the two runs must agree exactly in
// sim.Stats and in the final architectural state.
func TestSkipEdgeCases(t *testing.T) {
	for _, tc := range skipEdgeCases {
		p := isa.MustAssemble(tc.src)
		image := arch.NewMemory()
		if tc.setup != nil {
			tc.setup(image)
		}
		for _, model := range sim.Names() {
			t.Run(tc.name+"/"+model, func(t *testing.T) {
				var res [2]*sim.Result
				for i, disable := range []bool{false, true} {
					m, err := sim.NewMachine(model, sim.ModelOptions{Hier: mem.BaseConfig(), DisableSkip: disable})
					if err != nil {
						t.Fatal(err)
					}
					if res[i], err = m.Run(context.Background(), p, image); err != nil {
						t.Fatal(err)
					}
				}
				on, off := res[0], res[1]
				if on.Stats != off.Stats {
					t.Errorf("stats diverged with skipping on:\n  on:  %+v\n  off: %+v", on.Stats, off.Stats)
				}
				if sOn, sOff := on.Snapshot(), off.Snapshot(); !sOn.Equal(sOff) {
					t.Errorf("final state diverged between skip modes: %v", sOn.Diff(sOff, 8))
				}
				if tc.check != nil {
					tc.check(t, model, on)
				}
			})
		}
	}
}
