package cgooo

import (
	"context"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/sim"
)

// TestSkipWindowFullStall: with a tiny geometry the dispatch stage parks on
// window exhaustion while misses drain; those idle window-full cycles are
// exactly the ones the skip bulk-credits, so WindowFullCy must match between
// modes (covered by the full-Stats equality below). The other skip-edge
// programs run on every model in internal/bench/skip_edge_test.go.
func TestSkipWindowFullStall(t *testing.T) {
	src := "	movi r10 = 0x100000\n"
	for i := 0; i < 40; i++ {
		src += "	ld4 r" + itoa(1+i%60) + " = [r10+" + itoa(8192*(i+1)) + "]\n"
	}
	src += "	halt\n"
	p := isa.MustAssemble(src)

	cfg := DefaultConfig()
	cfg.NumWindows = 2
	cfg.BlockSize = 4
	var got [2]*sim.Result
	for i, disable := range []bool{false, true} {
		c := cfg
		c.DisableSkip = disable
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(context.Background(), p, arch.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res
	}
	if got[0].Stats != got[1].Stats {
		t.Errorf("stats diverged with skipping on:\n  on:  %+v\n  off: %+v", got[0].Stats, got[1].Stats)
	}
	if got[0].Stats.CGOOO.WindowFullCy == 0 {
		t.Error("tiny geometry never hit window-full: the edge under test did not occur")
	}
}
