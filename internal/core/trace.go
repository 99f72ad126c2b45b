package core

import (
	"fmt"
	"io"
)

// Tracer emits a human-readable event stream of the multipass pipeline's
// operation: mode transitions, advance passes and restarts, merges, and
// value-misspeculation flushes. Attach one through Config.Trace to watch
// the mechanisms of paper §3 operate on a real program.
//
// The format is one event per line:
//
//	cyc 123 advance-enter trigger=45 until=268
//	cyc 130 restart pass=3 peek->45
//	cyc 268 rally
//	cyc 270 merge seq=47
//	cyc 280 spec-flush seq=52 discarded=9
//	cyc 290 architectural
type Tracer struct {
	w io.Writer
}

// NewTracer wraps a writer.
func NewTracer(w io.Writer) *Tracer { return &Tracer{w: w} }

// enabled reports whether events will be written. Every trace helper checks
// it before building its argument list: the variadic event call boxes its
// arguments into a []any at the call site, and that boxing must not run (or
// allocate) on the hot path when tracing is off.
func (t *Tracer) enabled() bool { return t != nil && t.w != nil }

func (t *Tracer) event(now uint64, format string, args ...any) {
	if !t.enabled() {
		return
	}
	fmt.Fprintf(t.w, "cyc %d %s\n", now, fmt.Sprintf(format, args...))
}

// traceAdvanceEnter records an architectural->advance transition.
func (r *run) traceAdvanceEnter() {
	if !r.cfg.Trace.enabled() {
		return
	}
	r.cfg.Trace.event(r.Now, "advance-enter trigger=%d until=%d", r.trigger, r.stallUntil)
}

// traceRestart records an advance restart (compiler- or hardware-driven).
func (r *run) traceRestart(kind string) {
	if !r.cfg.Trace.enabled() {
		return
	}
	r.cfg.Trace.event(r.Now, "restart(%s) pass=%d peek->%d", kind, r.Stats.Multipass.AdvancePasses, r.trigger)
}

// traceRally records an advance->rally transition.
func (r *run) traceRally() {
	if !r.cfg.Trace.enabled() {
		return
	}
	r.cfg.Trace.event(r.Now, "rally next=%d maxPeek=%d rs=%d", r.next, r.maxPeek, r.rs.len())
}

// traceArch records a rally->architectural transition.
func (r *run) traceArch() {
	if !r.cfg.Trace.enabled() {
		return
	}
	r.cfg.Trace.event(r.Now, "architectural next=%d", r.next)
}

// traceFlush records a §3.6 value-misspeculation flush.
func (r *run) traceFlush(seq uint64, discarded int) {
	if !r.cfg.Trace.enabled() {
		return
	}
	r.cfg.Trace.event(r.Now, "spec-flush seq=%d discarded=%d", seq, discarded)
}

// traceMerge is sampled (it would otherwise dominate the stream): only
// merges of loads and stores are reported.
func (r *run) traceMerge(seq uint64, e *rsEntry) {
	if (e.hasAddr || e.isStore) && r.cfg.Trace.enabled() {
		r.cfg.Trace.event(r.Now, "merge seq=%d addr=%#x spec=%v", seq, e.addr, e.spec)
	}
}
