package xcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/isa"
	"multipass/internal/sim"
	"multipass/internal/xcheck/progen"
)

// diffInterps runs p through both the superblock and the step-wise
// interpreter and fails the test on any divergence: final architectural
// state (registers including NaT bits, memory, retired count), the
// retired-class counters, and the per-instruction event stream must be
// byte-identical.
func diffInterps(t *testing.T, label string, p *isa.Program, limit uint64) {
	t.Helper()
	swMem, sbMem := arch.NewMemory(), arch.NewMemory()
	sw, swErr := arch.RunStepwise(p, swMem, limit)
	sb, sbErr := arch.Run(p, sbMem, limit)
	switch {
	case (swErr == nil) != (sbErr == nil):
		t.Fatalf("%s: error divergence: stepwise=%v superblock=%v", label, swErr, sbErr)
	case swErr != nil && swErr.Error() != sbErr.Error():
		t.Fatalf("%s: error text divergence:\n  stepwise:   %v\n  superblock: %v", label, swErr, sbErr)
	}
	want := &sim.Snapshot{RF: sw.State.RF, Mem: swMem, Retired: sw.State.Retired}
	got := &sim.Snapshot{RF: sb.State.RF, Mem: sbMem, Retired: sb.State.Retired}
	if d := got.Diff(want, 8); len(d) != 0 {
		t.Fatalf("%s: architectural state diverged:\n  %s", label, strings.Join(d, "\n  "))
	}
	if sw.Loads != sb.Loads || sw.Stores != sb.Stores ||
		sw.Branches != sb.Branches || sw.Taken != sb.Taken {
		t.Fatalf("%s: counters diverged: stepwise {ld %d st %d br %d tk %d} superblock {ld %d st %d br %d tk %d}",
			label, sw.Loads, sw.Stores, sw.Branches, sw.Taken,
			sb.Loads, sb.Stores, sb.Branches, sb.Taken)
	}
	diffEvents(t, label, p, limit)
}

// diffEvents checks every ExecTrace event against the StepInfo of the same
// instruction: index, squash, memory and branch flags, and effective
// address. Chunks are short and oddly sized, and stop points every
// 97 instructions split fused compare+branch pairs, so resumption on the
// swallowed branch is exercised throughout.
func diffEvents(t *testing.T, label string, p *isa.Program, limit uint64) {
	t.Helper()
	sb := arch.NewSBProgram(p)
	ref, st := arch.NewState(arch.NewMemory()), arch.NewState(arch.NewMemory())
	buf := make([]arch.ExecEvent, 61)
	for !st.Halted && st.Retired < limit {
		_, n, err := sb.ExecTrace(st, min(st.Retired+97, limit), buf)
		for _, got := range buf[:n] {
			info, rerr := ref.Step(p)
			if rerr != nil {
				t.Fatalf("%s: step-wise failed at seq %d where the superblock retired: %v", label, ref.Retired, rerr)
			}
			want := arch.ExecEvent{Idx: int32(info.Index)}
			if info.Squashed {
				want.Flags |= arch.EvSquash
			}
			if info.IsLoad || info.IsStore {
				want.MemAddr = info.MemAddr
			}
			if info.IsLoad {
				want.Flags |= arch.EvLoad
			}
			if info.IsStore {
				want.Flags |= arch.EvStore
			}
			if info.IsBranch {
				want.Flags |= arch.EvBranch
			}
			if info.Taken {
				want.Flags |= arch.EvTaken
			}
			if got != want {
				t.Fatalf("%s: event at seq %d = %+v, step-wise %+v", label, ref.Retired-1, got, want)
			}
		}
		if err != nil {
			return // error parity is diffInterps' check
		}
		if n == 0 {
			t.Fatalf("%s: ExecTrace made no progress at seq %d", label, st.Retired)
		}
	}
}

// TestInterpDifferential proves the superblock interpreter byte-identical to
// the step-wise reference over the whole progen space the checker explores:
// every committed corpus program plus a progen sweep across the generator's
// option surface (default templates, small fuzz-shaped programs, compiled
// programs).
func TestInterpDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.asm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := isa.Assemble(string(src))
		if err != nil {
			t.Fatalf("%s: assemble: %v", file, err)
		}
		diffInterps(t, filepath.Base(file), p, 4_000_000)
	}

	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		p := progen.MustGenerate(progen.ForSeed(seed))
		diffInterps(t, fmt.Sprintf("seed%d", seed), p, 4_000_000)

		small := progen.Options{Seed: seed, Segments: 5, MaxTrip: 6, ChainNodes: 24, Compile: seed%3 == 2}
		diffInterps(t, fmt.Sprintf("seed%d-small", seed), progen.MustGenerate(small), 4_000_000)
	}
}

// FuzzInterpEquivalence explores generator seeds for any divergence between
// the two interpreters. Without -fuzz it replays the seed corpus, keeping
// `go test` fast; with -fuzz it searches indefinitely:
//
//	go test ./internal/xcheck -fuzz=FuzzInterpEquivalence -fuzztime=2m
func FuzzInterpEquivalence(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1337, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		opts := progen.Options{
			Segments:   5,
			MaxTrip:    6,
			ChainNodes: 24,
			Compile:    seed%3 == 2,
			Seed:       seed,
		}
		p, err := progen.Generate(opts)
		if err != nil {
			t.Skip("unbuildable seed")
		}
		diffInterps(t, fmt.Sprintf("fuzz-seed%d", seed), p, 4_000_000)
	})
}
