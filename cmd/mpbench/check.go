package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"multipass/internal/sim"
)

// goldens holds the committed golden statistics of every model x kernel
// cell (internal/bench/testdata/golden, read only), the correctness
// reference for every monolithic base-hierarchy run the benchmark makes.
type goldens struct {
	files   map[string][]byte // model/kernel -> marshaled sim.Stats
	retired map[string]uint64 // model/kernel -> retired instructions
}

func loadGoldens(root string, kernels []string) (*goldens, error) {
	g := &goldens{files: make(map[string][]byte), retired: make(map[string]uint64)}
	for _, m := range models {
		for _, k := range kernels {
			path := filepath.Join(root, "internal", "bench", "testdata", "golden", m+"__"+k+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("read golden: %w", err)
			}
			var st sim.Stats
			if err := json.Unmarshal(data, &st); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			g.files[m+"/"+k] = data
			g.retired[m+"/"+k] = st.Retired
		}
	}
	return g, nil
}

// check verifies one run's statistics. On the base hierarchy the marshaled
// stats must be byte-equal to the golden file; on the other hierarchies,
// which have no goldens, the retired count must still equal the golden's,
// since the dynamic instruction stream does not depend on the caches.
func (g *goldens) check(model, kernel, hier string, st *sim.Stats) error {
	key := model + "/" + kernel
	want, ok := g.files[key]
	if !ok {
		return fmt.Errorf("%s: no golden", key)
	}
	if hier != "base" {
		if st.Retired != g.retired[key] {
			return fmt.Errorf("%s/%s: retired %d, golden %d", key, hier, st.Retired, g.retired[key])
		}
		return nil
	}
	got, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if !bytes.Equal(append(got, '\n'), want) {
		return fmt.Errorf("%s: stats differ from golden", key)
	}
	return nil
}

// reference pins the monolithic (unsampled) run of the sampled-mcf
// workload's configuration, against which the sampled estimate's error is
// reported. TestReferenceCycles recomputes it.
type reference struct {
	Kernel  string `json:"kernel"`
	Scale   int    `json:"scale"`
	Model   string `json:"model"`
	Hier    string `json:"hier"`
	Retired uint64 `json:"retired"`
	Cycles  uint64 `json:"monolithic_cycles"`
}

//go:embed testdata/reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var r reference
	err := json.Unmarshal(referenceJSON, &r)
	return r, err
}
