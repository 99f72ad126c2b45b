package mem

import "testing"

func TestNextEventQuiescent(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	if ev := h.NextEvent(0); ev != 0 {
		t.Errorf("fresh hierarchy NextEvent = %d, want 0", ev)
	}
}

func TestNextEventDataFill(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	ready := h.AccessData(0x1000, 10, false, false)
	if ready <= 10 {
		t.Fatalf("cold miss ready at %d", ready)
	}
	if ev := h.NextEvent(10); ev != ready {
		t.Errorf("NextEvent(10) = %d, want %d", ev, ready)
	}
	// The completion is strictly-after semantics: still visible one cycle
	// before it lands, gone once now reaches it.
	if ev := h.NextEvent(ready - 1); ev != ready {
		t.Errorf("NextEvent(ready-1) = %d, want %d", ev, ready)
	}
	if ev := h.NextEvent(ready); ev != 0 {
		t.Errorf("NextEvent(ready) = %d, want 0 (event is in the past)", ev)
	}
}

func TestNextEventEarliestOfSeveral(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	r1 := h.AccessData(0x10000, 0, false, false)
	r2 := h.AccessData(0x20000, 50, false, false)
	if r2 <= r1 {
		t.Fatalf("fills not staggered: r1=%d r2=%d", r1, r2)
	}
	if ev := h.NextEvent(50); ev != r1 {
		t.Errorf("NextEvent(50) = %d, want earliest fill %d", ev, r1)
	}
	// Once the first completes, the second becomes the next event.
	if ev := h.NextEvent(r1); ev != r2 {
		t.Errorf("NextEvent(%d) = %d, want %d", r1, ev, r2)
	}
}

func TestNextEventInstFill(t *testing.T) {
	h := MustNewHierarchy(BaseConfig())
	ready := h.AccessInst(0x9000, 5)
	if ready <= 5 {
		t.Fatalf("cold instruction fetch ready at %d", ready)
	}
	if ev := h.NextEvent(5); ev != ready {
		t.Errorf("NextEvent(5) = %d, want instruction fill %d", ev, ready)
	}
	if ev := h.NextEvent(ready); ev != 0 {
		t.Errorf("NextEvent(ready) = %d, want 0", ev)
	}
}
