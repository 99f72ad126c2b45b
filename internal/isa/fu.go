package isa

// FUCaps describes the per-cycle issue capacity of the machine: the total
// issue width and the number of each functional-unit class, with separate
// load/store port limits within the memory class. It is shared by the
// compile-time scheduler and the hardware grouping logic so that compiler
// and machine agree on what fits in one cycle.
type FUCaps struct {
	MaxIssue  int
	PerClass  [NumFUClasses]int
	MaxLoads  int
	MaxStores int
}

// DefaultFUCaps returns the Itanium-2-like distribution used by the paper's
// Table 2 configuration: 6-issue, 6 integer ALUs (I- and M-units combined),
// 4 memory ports (at most 2 loads and 2 stores), 2 FP units, 3 branches.
func DefaultFUCaps() FUCaps {
	var c FUCaps
	c.MaxIssue = 6
	c.PerClass[FUInt] = 6
	c.PerClass[FUMem] = 4
	c.PerClass[FUFP] = 2
	c.PerClass[FUBr] = 3
	c.MaxLoads = 2
	c.MaxStores = 2
	return c
}

// FUUse tracks resource consumption within one issue cycle.
type FUUse struct {
	Issued   int
	PerClass [NumFUClasses]int
	Loads    int
	Stores   int
}

// Fits reports whether one more instruction with the given opcode fits in
// the cycle under caps.
func (u *FUUse) Fits(op Op, caps *FUCaps) bool { return u.FitsClass(op.FU(), op.Kind(), caps) }

// FitsClass is Fits for an instruction already decoded to its
// functional-unit class and kind.
func (u *FUUse) FitsClass(fu FUClass, k Kind, caps *FUCaps) bool {
	if u.Issued >= caps.MaxIssue {
		return false
	}
	if fu != FUNone && u.PerClass[fu] >= caps.PerClass[fu] {
		return false
	}
	if k == KindLoad && u.Loads >= caps.MaxLoads {
		return false
	}
	if k == KindStore && u.Stores >= caps.MaxStores {
		return false
	}
	return true
}

// Add records the issue of an instruction with the given opcode.
func (u *FUUse) Add(op Op) { u.AddClass(op.FU(), op.Kind()) }

// AddClass is Add for an instruction already decoded to its
// functional-unit class and kind.
func (u *FUUse) AddClass(fu FUClass, k Kind) {
	u.Issued++
	if fu != FUNone {
		u.PerClass[fu]++
	}
	switch k {
	case KindLoad:
		u.Loads++
	case KindStore:
		u.Stores++
	}
}

// Reset clears the cycle's usage.
func (u *FUUse) Reset() { *u = FUUse{} }
