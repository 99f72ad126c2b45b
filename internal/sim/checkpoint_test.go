package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/compile"
	"multipass/internal/mem"
	"multipass/internal/workload"
)

// TestCheckpointClonesConcurrent streams mcf's checkpoints while two
// goroutines per checkpoint clone its memory at once and interpret their
// interval from the clone, as interval workers do, and the producer keeps
// writing the memory every checkpoint was cloned from. Each interval must
// decode the pre-decoded trace's records, and afterwards every checkpoint
// memory must still equal the memory a fresh run reaches at its sequence.
// Run it under -race.
func TestCheckpointClonesConcurrent(t *testing.T) {
	w, _ := workload.ByName("mcf")
	p, image, err := workload.Program(w, 1, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildTrace(p, image, TraceLimit)
	if err != nil {
		t.Fatal(err)
	}
	spec := CheckpointSpec{Hier: mem.BaseConfig(), PredictorEntries: 1024}
	src, err := StreamCheckpoints(context.Background(), p, image, SampleConfig{Interval: 20000, Warmup: 5000}, spec)
	if err != nil {
		t.Fatal(err)
	}

	interval := func(ck *Checkpoint) error {
		s := StreamFrom(p, ck, math.MaxUint64, nil)
		for seq := ck.Seq; seq < min(ck.End, tr.Len()); seq++ {
			d, err := s.At(seq)
			if err != nil {
				return err
			}
			if d == nil || *d != tr.insts[seq] {
				return fmt.Errorf("checkpoint %d: seq %d = %+v, want %+v", ck.Seq, seq, d, tr.insts[seq])
			}
			s.Release(seq)
		}
		return nil
	}
	var (
		cks  []*Checkpoint
		errs []error
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	sem := make(chan struct{}, 4) // bounds the live interval clones
	for ck := range src.C {
		cks = append(cks, ck)
		for range 2 {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				if err := interval(ck); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if _, _, _, err := src.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		t.Error(err)
	}
	if len(cks) < 10 {
		t.Fatalf("%d checkpoints, want at least 10", len(cks))
	}

	sb := arch.NewSBProgram(p)
	st := arch.NewState(image.Clone())
	for _, ck := range cks {
		if _, err := sb.Exec(st, ck.Seq); err != nil {
			t.Fatal(err)
		}
		if !ck.Mem.Equal(st.Mem) {
			t.Fatalf("checkpoint %d memory changed after capture: %v", ck.Seq, ck.Mem.DiffWords(st.Mem, 4))
		}
	}
}
