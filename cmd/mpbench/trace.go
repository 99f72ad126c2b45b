package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of the traced run in memory until the run ends.
// Spans are recorded by the benchmark around its own calls into each layer
// (the program itself is not instrumented). A nil *tracer records nothing,
// so the untraced run goes through the same call sites.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one finished span. Every span of one operation (a suite
// cell, a request, a sweep, a setup) shares Op; Parent is 0 for the
// operation's root span. Times are nanoseconds since the tracer started.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span. Methods on a nil *span do nothing.
type span struct {
	t      *tracer
	id, op int64
	parent int64
	name   string
	start  time.Time
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) *span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &span{t: t, id: id, op: id, name: name, start: time.Now()}
}

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{t: s.t, id: s.t.ids.Add(1), op: s.op, parent: s.id, name: name, start: time.Now()}
}

// end closes the span now.
func (s *span) end() {
	if s == nil {
		return
	}
	s.t.add(spanRecord{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(time.Since(s.t.t0))})
}

// record adds a finished child of s whose interval was measured elsewhere,
// such as a phase the program reports about itself.
func (s *span) record(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	st := int64(start.Sub(s.t.t0))
	s.t.add(spanRecord{ID: s.t.ids.Add(1), Parent: s.id, Op: s.op, Name: name, Start: st, End: st + int64(d)})
}

func (t *tracer) add(r spanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover (overlapping
// children count once).
func (t *tracer) summary() []layerTime {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int64][]spanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent spanRecord, kids []spanRecord) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// write stores the spans and their per-name summary as one JSON file.
func (t *tracer) write(path, workloadName string, seed int64) error {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Layers   []layerTime  `json:"layers"`
		Spans    []spanRecord `json:"spans"`
	}{workloadName, seed, t.summary(), spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// heapSampler records the peak live Go heap every 50 ms while a
// measurement runs. The live heap is what each garbage collection found
// reachable; unlike the heap's total size it does not depend on where the
// collector's cycle happened to be when a sample was taken.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		h.peak = max(h.peak, sample[0].Value.Uint64())
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
