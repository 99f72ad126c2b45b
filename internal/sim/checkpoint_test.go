package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"multipass/internal/arch"
	"multipass/internal/compile"
	"multipass/internal/mem"
	"multipass/internal/workload"
)

// TestCheckpointClonesConcurrent streams mcf's checkpoints while two
// goroutines per checkpoint each clone its memory, as Run.Own does for a
// value-simulating model, and execute the interval on the clone, and the
// producer keeps writing the memory every checkpoint was cloned from. Every
// instruction executed on the clone, and every one the interval's recording
// holds, must equal the pre-decoded trace's record. Afterwards every
// checkpoint memory must still equal the memory a fresh run reaches at its
// sequence. Run it under -race.
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
	spec := CheckpointSpec{Hier: mem.BaseConfig(), PredictorEntries: 1024, Lookahead: 256, Values: true}
	src, err := StreamCheckpoints(context.Background(), p, image, SampleConfig{Interval: 20000, Warmup: 5000}, spec)
	if err != nil {
		t.Fatal(err)
	}
	sb := arch.NewSBProgram(p)

	interval := func(ck *Checkpoint) error {
		end := min(ck.End, tr.Len())
		own := &arch.State{RF: ck.RF.Clone(), Mem: ck.Mem.Clone(), PC: ck.PC, Retired: ck.Seq}
		evs := make([]arch.ExecEvent, streamChunk)
		for own.Retired < end {
			seq := own.Retired
			_, n, err := sb.ExecTrace(own, end, evs)
			for i, e := range evs[:n] {
				if want := tr.events[seq+uint64(i)]; e != want {
					return fmt.Errorf("checkpoint %d: clone executed %+v at seq %d, want %+v", ck.Seq, e, seq+uint64(i), want)
				}
			}
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("checkpoint %d: clone stopped at seq %d before %d", ck.Seq, seq, end)
			}
		}
		s := StreamFrom(ck)
		for seq := ck.Seq; seq < end; seq++ {
			d, err := s.At(seq)
			if err != nil {
				return err
			}
			if d == nil || *d != tr.events[seq] {
				return fmt.Errorf("checkpoint %d: seq %d = %+v, want %+v", ck.Seq, seq, d, tr.events[seq])
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
