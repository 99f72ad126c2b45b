package sim

import (
	"context"
	"time"

	"multipass/internal/arch"
	"multipass/internal/isa"
)

// Result is the outcome of one timing run: the statistics plus the final
// architectural state the machine produced, for cross-model equivalence
// checks.
type Result struct {
	Stats Stats
	RF    *arch.RegFile
	Mem   *arch.Memory
	// Phases are named wall-clock segments of producing this result
	// (simulate, plus anything a model or harness records via AddPhase).
	// They describe the run that produced the Result, not the simulated
	// machine, so they are excluded from Stats and from cached JSON.
	Phases []Phase
}

// Phase is one named wall-clock segment recorded against a Result.
type Phase struct {
	Name string
	Dur  time.Duration
}

// AddPhase appends a timing phase. Callers own the Result; the method is
// not concurrency-safe.
func (r *Result) AddPhase(name string, d time.Duration) {
	r.Phases = append(r.Phases, Phase{Name: name, Dur: d})
}

// Machine is one timing model.
type Machine interface {
	// Name identifies the model in experiment output.
	Name() string
	// Run simulates the program starting from the given memory image. The
	// image is not mutated; the returned Result holds the machine's own
	// final state. Run honors ctx: cancellation or deadline expiry aborts
	// the simulation within at most one context-poll interval of cycles
	// and returns ctx.Err() (possibly wrapped).
	Run(ctx context.Context, p *isa.Program, image *arch.Memory) (*Result, error)
}

// RegSet is a dense bit set over all architectural registers, used for
// intra-group dependence checks.
type RegSet [(isa.NumFlatRegs + 63) / 64]uint64

// Add inserts r; hardwired registers are ignored (they carry no dependence).
func (s *RegSet) Add(r isa.Reg) {
	if r.IsZeroReg() {
		return
	}
	if f := r.Flat(); f >= 0 {
		s[f/64] |= 1 << (f % 64)
	}
}

// Has reports whether r is in the set; hardwired registers never are.
func (s *RegSet) Has(r isa.Reg) bool {
	if r.IsZeroReg() {
		return false
	}
	f := r.Flat()
	return f >= 0 && s[f/64]&(1<<(f%64)) != 0
}

// ProducerKind distinguishes what kind of instruction last wrote a register,
// for stall attribution (load stalls vs other stalls).
type ProducerKind uint8

const (
	// ProducerNone: no tracked producer (value long ready).
	ProducerNone ProducerKind = iota
	// ProducerLoad: a load wrote the register.
	ProducerLoad
	// ProducerOther: a multi-cycle or single-cycle non-load op wrote it.
	ProducerOther
)

// StallFor maps a producer kind to the stall category charged while waiting
// for it.
func (k ProducerKind) StallFor() StallKind {
	if k == ProducerLoad {
		return StallLoad
	}
	return StallOther
}
