// Package sim holds the simulation kernel shared by every timing model: the
// machine configuration (paper Table 2), the statistics structure with the
// four stall categories of Figure 6, the oracle instruction stream that
// pipelines fetch from, the front-end fetch unit, the sampling checkpoints,
// and the one cycle loop (Model and its driver) every model's Pipeline runs
// on.
//
// # Modeling approach
//
// The simulators are execution-driven at the architectural level and
// timing-driven at the microarchitectural level. A Stream interprets the
// program along its correct path, producing the dynamic instruction sequence
// with addresses and branch outcomes; pipelines consume this stream for
// fetch and apply their own issue, dependence, and memory timing. Branch
// prediction is modeled as oracle-path fetch plus a misprediction penalty
// charged when a branch executes with a wrong prediction (wrong-path
// instructions are not simulated; speculative pre-execution past an
// actually-mispredicted unresolvable branch is terminated, which slightly
// understates wrong-path cache pollution and prefetching alike).
//
// The multipass and runahead models additionally simulate their speculative
// values for real (speculative register file, advance store cache, result
// store), and maintain their own architectural register file and memory,
// so the cross-model equivalence tests verify functional correctness of the
// speculation machinery rather than assuming it. The in-order and
// out-of-order models speculate on no values and report the stream's final
// state.
package sim

import (
	"multipass/internal/isa"
	"multipass/internal/mem"
)

// Config is the machine configuration shared by the timing models.
type Config struct {
	// Caps is the issue width and FU distribution.
	Caps isa.FUCaps
	// Hier is the cache hierarchy configuration.
	Hier mem.HierConfig
	// PredictorEntries sizes the gshare table (Table 2: 1024).
	PredictorEntries int
	// FetchWidth is instructions fetched per cycle into the buffer.
	FetchWidth int
	// BufferSize is the instruction buffer capacity in instructions. The
	// baseline in-order machine uses a small decoupling buffer; the
	// multipass instruction queue is 256 entries (Table 2).
	BufferSize int
	// MispredictPenalty is the front-end refill penalty in cycles charged
	// for a mispredicted branch.
	MispredictPenalty int
	// MaxInsts bounds the dynamic instruction count of a run.
	MaxInsts uint64
	// DisableSkip turns off idle-cycle fast-forwarding (event-driven stall
	// skipping), forcing the cycle loop to tick through every stalled cycle.
	// Skipping is a pure simulator-speed optimization — sim.Stats and the
	// final architectural state are byte-identical either way (enforced by
	// the golden stats, the paired bench tests, and xcheck's skip
	// differential) — so the switch exists as an escape hatch and for those
	// paired runs, not as a modeling knob.
	DisableSkip bool
}

// Default returns the Table 2 baseline configuration for in-order machines.
func Default() Config {
	return Config{
		Caps:              isa.DefaultFUCaps(),
		Hier:              mem.BaseConfig(),
		PredictorEntries:  1024,
		FetchWidth:        6,
		BufferSize:        24,
		MispredictPenalty: 8,
		MaxInsts:          100_000_000,
	}
}

// Validate checks the configuration for usability.
func (c *Config) Validate() error {
	if c.Caps.MaxIssue < 1 {
		return errConfig("MaxIssue < 1")
	}
	if c.FetchWidth < 1 {
		return errConfig("FetchWidth < 1")
	}
	if c.BufferSize < 1 {
		return errConfig("BufferSize < 1")
	}
	if c.MispredictPenalty < 0 {
		return errConfig("negative MispredictPenalty")
	}
	if c.MaxInsts == 0 {
		return errConfig("MaxInsts = 0")
	}
	if c.PredictorEntries <= 0 || c.PredictorEntries&(c.PredictorEntries-1) != 0 {
		return errConfig("PredictorEntries not a positive power of two")
	}
	return nil
}

type configError string

func errConfig(msg string) error { return configError(msg) }

func (e configError) Error() string { return "sim: invalid config: " + string(e) }
