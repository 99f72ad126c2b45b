package sim

import "multipass/internal/mem"

// SkipState is the per-cycle idleness tracker behind event-driven stall
// skipping. A cycle loop that simulates one cycle at a time spends most of
// its wall time ticking through fully-stalled cycles while a memory fill is
// in flight; SkipState lets the driver prove that a cycle the pipeline just
// simulated will repeat unchanged and jump its clock straight to the first
// cycle at which anything can differ, bulk-crediting the skipped cycles into
// the same stall counters the per-cycle path would have produced.
//
// The proof obligation (see DESIGN.md "Idle-cycle fast-forwarding") is:
//
//  1. The cycle mutated no model state — no instruction issued, merged,
//     retired, pre-executed or was deferred; no mode/episode transition; no
//     predictor update, fetch flush, or hierarchy access. A pipeline reports
//     such a cycle as not Idle (see Cycle) or marks it with MarkDirty, and a
//     dirty cycle never skips.
//  2. Every comparison of a future deadline against the current cycle that
//     the pipeline evaluated on its path — operand-ready times, fetch-ready
//     times, scoreboard entries, pipeline-restore cycles, episode ends —
//     was reported with Note. The earliest noted deadline is then the first
//     cycle at which the pipeline could take a different path: deadlines
//     already in the past stay in the past, and deadlines noted in the
//     future stay in the future until the earliest of them arrives.
//
// Under those two conditions every cycle in [now, wake) replays identically,
// so charging them in bulk is byte-identical to ticking through them.
//
// Jump additionally clamps the target so that the driver's context-poll
// cadence is preserved (a jump never crosses a context-poll boundary) and, defensively, so that a jump never crosses the memory
// hierarchy's next fill completion (Hierarchy.NextEvent): landing on an
// intermediate completion merely re-proves idleness and skips again, so the
// clamp cannot change the accounting, only bound how far a single jump
// trusts the idleness proof.
type SkipState struct {
	wake  uint64
	dirty bool
}

// Begin resets the tracker at the top of a simulated cycle.
func (s *SkipState) Begin() {
	s.wake = 0
	s.dirty = false
}

// Note records a deadline the cycle observed in its future. Zero (no
// deadline) is ignored; the earliest noted deadline wins.
func (s *SkipState) Note(at uint64) {
	if at != 0 && (s.wake == 0 || at < s.wake) {
		s.wake = at
	}
}

// MarkDirty records that the cycle mutated model state, making it
// non-repeatable; Jump then refuses to skip.
func (s *SkipState) MarkDirty() { s.dirty = true }

// Jump returns how many cycles beyond now may be fast-forwarded, where now is
// the first not-yet-simulated cycle (the driver has already charged the
// cycle just simulated and advanced its clock). It returns 0 when the cycle
// was dirty, when no deadline was noted, or when the earliest deadline is not
// in the future. The returned delta never crosses a context-poll boundary
// (the context poll fires on exactly the cycles it would have without
// skipping) and never crosses h's next fill completion.
func (s *SkipState) Jump(h *mem.Hierarchy, now uint64) uint64 {
	if s.dirty || s.wake <= now {
		return 0
	}
	wake := s.wake
	// Clamp to the next poll boundary: the last permissible landing cycle is
	// the next multiple of the poll interval, so the enclosing loop polls its
	// context exactly as often as the per-cycle path. Guard the +1 against
	// uint64 wraparound near the end of the cycle space.
	boundary := now | uint64(ctxPollMask)
	if boundary == ^uint64(0) {
		return 0
	}
	if cap := boundary + 1; wake > cap {
		wake = cap
	}
	// Defense in depth: never jump past a memory completion.
	if h != nil {
		if ev := h.NextEvent(now); ev != 0 && ev < wake {
			wake = ev
		}
	}
	if wake <= now {
		return 0
	}
	return wake - now
}
