package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"multipass/internal/mem"
	"multipass/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden stats files")

// goldenModels x goldenKernels is the determinism matrix: every timing model
// on every kernel of the suite, so cycle-exactness is pinned suite-wide.
var goldenModels = []ModelName{MInorder, MRunahead, MMultipass, MNoRegroup, MNoRestart, MOOO, MOOORealistc, MCGOoO}

var goldenKernels = allKernelNames()

func allKernelNames() []string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return names
}

// goldenScale matches the repo-root benchScale so the goldens pin exactly the
// runs the benchmarks measure.
const goldenScale = 1

// TestGoldenStats pins the full marshaled sim.Stats (schema_version 1) of
// every model x kernel pair against checked-in goldens. The goldens were
// generated before the allocation-free hot-loop rewrite (ring-buffer result
// store, page-cached memory, bounded MSHR/rename/store-buffer structures,
// pre-decoded traces), so a byte-level diff here means a timing or
// architectural change, not just a perf regression: the optimizations must be
// cycle-exact. Regenerate deliberately with:
//
//	go test ./internal/bench -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	for _, model := range goldenModels {
		for _, kernel := range goldenKernels {
			model, kernel := model, kernel
			t.Run(string(model)+"/"+kernel, func(t *testing.T) {
				t.Parallel()
				w, ok := workload.ByName(kernel)
				if !ok {
					t.Fatalf("unknown kernel %q", kernel)
				}
				res, err := Run(context.Background(), model, w, goldenScale, mem.BaseConfig())
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(res.Stats, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')

				path := filepath.Join("testdata", "golden", string(model)+"__"+kernel+".json")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update to generate): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("stats diverged from golden %s\n got: %s\nwant: %s", path, got, want)
				}
			})
		}
	}
}
