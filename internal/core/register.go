package core

import "multipass/internal/sim"

// The multipass variants of the evaluation: the full machine and the two
// Figure 8 ablations.
func init() {
	factory := func(noRegroup, noRestart bool) sim.Factory {
		return func(opts sim.ModelOptions) (sim.Machine, error) {
			cfg := DefaultConfig()
			opts.Overlay(&cfg.Config)
			cfg.DisableRegroup = noRegroup
			cfg.DisableRestart = noRestart
			return New(cfg)
		}
	}
	sim.Register("multipass", factory(false, false))
	sim.Describe("multipass", "flea-flicker multipass pipeline: advance passes under misses, rally pass commits (paper §3)")
	sim.Register("multipass-noregroup", factory(true, false))
	sim.Describe("multipass-noregroup", "multipass ablation without issue-group re-formation (Figure 8)")
	sim.Register("multipass-norestart", factory(false, true))
	sim.Describe("multipass-norestart", "multipass ablation without critical-load RESTART hints (Figure 8)")
}
