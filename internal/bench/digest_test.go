package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"multipass/internal/mem"
	"multipass/internal/sim"
)

// digestPath holds one line per pinned run: its key and the SHA-256 of its
// marshaled sim.Stats.
var digestPath = filepath.Join("testdata", "stats_digests.txt")

// digestWorkers are the worker counts every full-coverage sampled run is
// repeated with; zero is RunSampled's default (GOMAXPROCS). Worker count
// must not change the stitched stats, so all of them share one digest.
var digestWorkers = []int{0, 1, 4}

// TestStatsDigests pins, byte for byte, the runs the JSON goldens leave
// out: every registered model on every kernel under the config1 and config2
// hierarchies (Figure 7), and the stitched stats of RunSampled for every
// registered model at the sampling tests' configuration, full coverage on
// mcf and art and period 4 on mcf. It follows TestGoldenStats's rule:
// regenerate deliberately with
//
//	go test ./internal/bench -run TestStatsDigests -update
func TestStatsDigests(t *testing.T) {
	var (
		mu  sync.Mutex
		got = map[string]string{}
	)
	record := func(t *testing.T, key string, st sim.Stats) {
		t.Helper()
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		d := hex.EncodeToString(sum[:])
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := got[key]; ok && prev != d {
			t.Errorf("%s: digest %s differs from %s of an equivalent run", key, d, prev)
			return
		}
		got[key] = d
	}

	models := sim.Names()
	t.Run("group", func(t *testing.T) {
		for _, kernel := range goldenKernels {
			pr := mustPrepare(t, kernel, goldenScale)
			for _, hname := range []string{"config1", "config2"} {
				hier, _ := mem.ConfigByName(hname)
				for _, model := range models {
					key := fmt.Sprintf("%s/%s/%s", hname, model, kernel)
					t.Run(key, func(t *testing.T) {
						t.Parallel()
						res, err := pr.Run(context.Background(), ModelName(model), hier)
						if err != nil {
							t.Fatal(err)
						}
						record(t, key, res.Stats)
					})
				}
			}
		}
		for _, kernel := range []string{"mcf", "art"} {
			pr := mustPrepare(t, kernel, sampleTestScale)
			for _, model := range models {
				for _, period := range []uint64{1, 4} {
					if period > 1 && kernel != "mcf" {
						continue
					}
					workers := digestWorkers
					if period > 1 {
						workers = digestWorkers[:1]
					}
					key := fmt.Sprintf("sampled/p%d/%s/%s", period, model, kernel)
					for _, wk := range workers {
						t.Run(fmt.Sprintf("%s/w%d", key, wk), func(t *testing.T) {
							t.Parallel()
							scfg := sim.SampleConfig{Interval: sampleTestInterval, Period: period, Workers: wk}
							res, err := pr.RunSampled(context.Background(), ModelName(model), sim.ModelOptions{Hier: mem.BaseConfig()}, scfg)
							if err != nil {
								t.Fatal(err)
							}
							record(t, key, res.Stats)
						})
					}
				}
			}
		}
	})
	if t.Failed() {
		return
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(digestPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	for k, d := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no digest pinned (run with -update to generate)", k)
		} else if w != d {
			t.Errorf("%s: stats digest %s, pinned %s", k, d, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned digest has no run", k)
		}
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestPath)
	if err != nil {
		t.Fatalf("missing digests (run with -update to generate): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, d, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestPath, sc.Text())
		}
		want[key] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
