package sim

import (
	"testing"

	"multipass/internal/mem"
)

func TestSkipNoteKeepsEarliestDeadline(t *testing.T) {
	var s SkipState
	s.Begin()
	if d := s.Jump(nil, 10); d != 0 {
		t.Errorf("jump with no noted deadline = %d, want 0", d)
	}
	s.Note(500)
	s.Note(0) // zero means "no deadline" and must be ignored
	s.Note(300)
	s.Note(400)
	if d := s.Jump(nil, 10); d != 290 {
		t.Errorf("jump = %d, want 290 (earliest deadline 300 wins)", d)
	}
	s.Begin()
	if d := s.Jump(nil, 10); d != 0 {
		t.Errorf("jump after Begin = %d, want 0 (deadlines reset)", d)
	}
}

func TestSkipJumpRefusals(t *testing.T) {
	var s SkipState

	// Deadline at or before now: nothing to skip.
	s.Begin()
	s.Note(100)
	if d := s.Jump(nil, 100); d != 0 {
		t.Errorf("deadline == now: jump = %d, want 0", d)
	}
	if d := s.Jump(nil, 150); d != 0 {
		t.Errorf("deadline < now: jump = %d, want 0", d)
	}

	// A dirty cycle never skips, however far away the deadline is.
	s.Begin()
	s.Note(1 << 40)
	s.MarkDirty()
	if d := s.Jump(nil, 10); d != 0 {
		t.Errorf("dirty cycle: jump = %d, want 0", d)
	}
}

// TestSkipJumpPollBoundary: a jump never crosses a context-poll boundary, so
// the driver polls its context on exactly the cycles it would have without
// skipping.
func TestSkipJumpPollBoundary(t *testing.T) {
	const poll = uint64(ctxPollMask) + 1 // 1024
	var s SkipState

	s.Begin()
	s.Note(5000)
	if d := s.Jump(nil, 100); d != 924 {
		t.Errorf("jump from 100 toward 5000 = %d, want 924 (land on %d)", d, poll)
	}

	// From a poll cycle itself the clamp is the *next* boundary.
	s.Begin()
	s.Note(5000)
	if d := s.Jump(nil, poll); d != poll {
		t.Errorf("jump from %d toward 5000 = %d, want %d (land on %d)", poll, d, poll, 2*poll)
	}

	// Sweep: for any now, the skipped range (now, now+d) contains no poll
	// cycle — the landing cycle is the only place a poll may become due.
	for _, now := range []uint64{1, 1023, 1024, 1025, 4096, 123_456, 1<<32 + 7} {
		s.Begin()
		s.Note(now + 10*poll)
		d := s.Jump(nil, now)
		if d == 0 {
			t.Errorf("now=%d: jump = 0, want > 0", now)
			continue
		}
		for c := now + 1; c < now+d; c++ {
			if c&uint64(ctxPollMask) == 0 {
				t.Errorf("now=%d d=%d: skipped over poll cycle %d", now, d, c)
				break
			}
		}
	}
}

// TestSkipJumpMinimal: a fill completing at now+1 yields the minimal jump of
// one cycle — the degenerate "skip of zero stalled cycles beyond the next".
func TestSkipJumpMinimal(t *testing.T) {
	var s SkipState
	s.Begin()
	s.Note(43)
	if d := s.Jump(nil, 42); d != 1 {
		t.Errorf("deadline at now+1: jump = %d, want 1", d)
	}
}

// TestSkipJumpLargeCycles: arithmetic near the top of the uint64 cycle space
// must not wrap. When the poll-boundary clamp itself would overflow, Jump
// gives up rather than computing a wrapped target.
func TestSkipJumpLargeCycles(t *testing.T) {
	max := ^uint64(0)
	var s SkipState

	// now | ctxPollMask == MaxUint64: boundary+1 would wrap.
	s.Begin()
	s.Note(max)
	if d := s.Jump(nil, max-5); d != 0 {
		t.Errorf("near-overflow jump = %d, want 0", d)
	}

	// Just below the last poll window: jumps still work and stay in range.
	now := max - 5000
	s.Begin()
	s.Note(max - 10)
	d := s.Jump(nil, now)
	if d == 0 {
		t.Fatal("jump below the last poll window = 0, want > 0")
	}
	if now+d < now || now+d > max-10 {
		t.Errorf("jump target %d out of range (now %d, deadline %d)", now+d, now, max-10)
	}
}

// TestSkipJumpNextEventClamp: a jump never crosses the hierarchy's next fill
// completion, even when the noted deadline lies beyond it.
func TestSkipJumpNextEventClamp(t *testing.T) {
	h := mem.MustNewHierarchy(mem.BaseConfig())
	ready := h.AccessData(0x4000, 0, false, false) // cold miss; fill in flight
	if ready <= 1 {
		t.Fatalf("cold miss ready at %d, want a real memory latency", ready)
	}

	var s SkipState
	s.Begin()
	s.Note(5000)
	if d := s.Jump(h, 10); d != ready-10 {
		t.Errorf("jump = %d, want %d (clamped to fill completion %d)", d, ready-10, ready)
	}

	// A fill already completed is not an event; the deadline (then the poll
	// clamp) governs again.
	s.Begin()
	s.Note(ready + 100)
	if d := s.Jump(h, ready); d != 100 {
		t.Errorf("jump after fill completion = %d, want 100", d)
	}
}
