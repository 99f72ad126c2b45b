package mem

import (
	"sync"
	"testing"
)

// driveHierarchy performs a deterministic access pattern and returns the
// final stats snapshot.
func driveHierarchy(h *Hierarchy) HierStats {
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		addr := uint32(i%37) * 4096 // page-strided: misses, MSHR pressure
		now = h.AccessData(addr, now, i%5 == 0, false)
		h.AccessInst(uint32(i%13)*64, now)
	}
	return h.Stats()
}

// TestHierarchyReuseParallel exercises the per-run pattern under the race
// detector: distinct goroutines each build one hierarchy per run, the way
// every simulation run builds its own. Hierarchies are not shared, so this
// must be race-clean and every run must see the same statistics.
func TestHierarchyReuseParallel(t *testing.T) {
	var want HierStats
	{
		h := MustNewHierarchy(BaseConfig())
		want = driveHierarchy(h)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < 3; run++ {
				if got := driveHierarchy(MustNewHierarchy(BaseConfig())); got != want {
					t.Errorf("run %d: stats diverged", run)
				}
			}
		}()
	}
	wg.Wait()
}
