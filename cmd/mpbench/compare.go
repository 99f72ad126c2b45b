package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the root BENCHMARK.json: the workloads, the end-to-end
// metrics with the bound by which each may worsen (a share of the old
// median), and the per-layer metrics.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkFile reads BENCHMARK.json from the checkout root.
func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// values collects, in file order, one metric of one workload from the runs
// of the given trace mode.
func values(recs []record, workload, metric string, trace int) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict labels the change from the old runs to the new runs of one metric
// on one workload. A change is regressed when the new median is worse than
// the old by more than bound (a share of the old median). Where the old
// runs' own spread (interquartile distance over median) exceeds the bound
// the pair is unresolved, unless every new run beats every old run. A gain
// counts only when the new side wins at least nine tenths of the pairs
// (runs paired in file order) and the medians differ by more than the old
// runs' interquartile distance.
func verdict(old, cur []float64, better string, bound float64) string {
	if len(old) == 0 || len(cur) == 0 {
		return unresolved
	}
	sign := 1.0 // +1: higher is better
	if better == "lower" {
		sign = -1
	}
	mo, mc := median(old), median(cur)
	worse := sign * (mo - mc) / math.Abs(mo)

	allBetter := true
	for _, o := range old {
		for _, c := range cur {
			allBetter = allBetter && sign*(c-o) > 0
		}
	}
	spread, iqr := 0.0, 0.0
	if len(old) >= 2 {
		q1, q3 := quartiles(old)
		iqr = q3 - q1
		spread = iqr / math.Abs(mo)
	}
	switch {
	case spread > bound && allBetter:
		return improved
	case spread > bound:
		return unresolved
	case worse > bound:
		return regressed
	}
	wins, pairs := 0, min(len(old), len(cur))
	for i := 0; i < pairs; i++ {
		if sign*(cur[i]-old[i]) > 0 {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(mc-mo) > iqr {
		return improved
	}
	return unchanged
}

// runCompare prints every (workload, end-to-end metric) pair of the two
// record files with its verdict, then the per-layer medians of the traced
// runs as ratios. It reports whether any pair regressed. root is the
// checkout root, which holds BENCHMARK.json.
func runCompare(w io.Writer, root, oldPath, newPath string) (bool, error) {
	b, err := loadBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	old, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	anyRegressed := false
	fmt.Fprintf(w, "%-13s %-16s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "spread", "verdict")
	for _, wl := range b.Workloads {
		for _, spec := range b.EndToEnd {
			o, c := values(old, wl.Name, spec.Name, 0), values(cur, wl.Name, spec.Name, 0)
			if len(o) == 0 && len(c) == 0 {
				continue
			}
			v := verdict(o, c, spec.Better, spec.Bound)
			anyRegressed = anyRegressed || v == regressed
			spread := math.NaN()
			if len(o) >= 2 {
				spread = relSpread(o)
			}
			fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g %7.1f%% %6.0f%% %6.1f%%  %s (n=%d/%d)\n",
				wl.Name, spec.Name, median(o), median(c), 100*(median(c)/median(o)-1), 100*spec.Bound, 100*spread, v, len(o), len(c))
		}
	}

	type row struct {
		workload, metric string
		old, cur         float64
	}
	var rows []row
	for _, wl := range b.Workloads {
		for _, spec := range b.PerLayer {
			o, c := values(old, wl.Name, spec.Name, 1), values(cur, wl.Name, spec.Name, 1)
			if len(o) > 0 && len(c) > 0 {
				rows = append(rows, row{wl.Name, spec.Name, median(o), median(c)})
			}
		}
	}
	if len(rows) > 0 {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].metric < rows[j].metric })
		fmt.Fprintf(w, "\nper-layer medians of the traced runs (no bounds; new/old):\n")
		for _, r := range rows {
			fmt.Fprintf(w, "%-13s %-40s %14.6g %14.6g %8.3fx\n", r.workload, r.metric, r.old, r.cur, r.cur/r.old)
		}
	}
	return anyRegressed, nil
}
