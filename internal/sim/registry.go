package sim

import (
	"fmt"
	"sort"
	"sync"

	"multipass/internal/mem"
)

// ModelOptions carries the per-run knobs a caller may vary without knowing a
// model's concrete configuration type. Factories overlay these on their
// package defaults (paper Table 2).
type ModelOptions struct {
	// Hier is the cache hierarchy configuration.
	Hier mem.HierConfig
	// MaxInsts, when nonzero, overrides the model's default dynamic
	// instruction limit.
	MaxInsts uint64
	// DisableSkip turns off idle-cycle fast-forwarding for the run. The
	// zero value (skipping on) is the production configuration; see
	// Config.DisableSkip.
	DisableSkip bool
}

// Overlay applies the options to a model's default configuration: the
// hierarchy, the instruction limit when one is set, and the skip switch.
func (o ModelOptions) Overlay(c *Config) {
	c.Hier = o.Hier
	if o.MaxInsts != 0 {
		c.MaxInsts = o.MaxInsts
	}
	c.DisableSkip = o.DisableSkip
}

// Factory constructs a machine from the shared options.
type Factory func(opts ModelOptions) (Machine, error)

// Registry maps model names to factories. Model packages self-register their
// variants in init(); consumers (the bench harness, the mpsim CLI, the mpsimd
// service) enumerate and construct models without a hard-coded switch.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
	descs     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory), descs: make(map[string]string)}
}

// Register adds a factory under name. Registering a duplicate name panics:
// it is a package wiring bug, not a runtime condition.
func (r *Registry) Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("sim: Register with empty name or nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("sim: model %q registered twice", name))
	}
	r.factories[name] = f
}

// Describe attaches a one-line human-readable description to a registered
// model; API surfaces (GET /v1/models) report it alongside the name.
// Describing an unregistered model panics: like a duplicate Register, it is
// a package wiring bug.
func (r *Registry) Describe(name, desc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.factories[name]; !ok {
		panic(fmt.Sprintf("sim: Describe of unregistered model %q", name))
	}
	r.descs[name] = desc
}

// Description returns the model's registered description, or "" when the
// model is unknown or was registered without one.
func (r *Registry) Description(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.descs[name]
}

// Lookup returns the factory registered under name.
func (r *Registry) Lookup(name string) (Factory, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.factories[name]
	return f, ok
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New constructs the named model, with a did-you-mean error listing the
// registered names on failure.
func (r *Registry) New(name string, opts ModelOptions) (Machine, error) {
	f, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown model %q (registered: %v)", name, r.Names())
	}
	return f(opts)
}

// DefaultRegistry is the process-wide registry model packages register into.
var DefaultRegistry = NewRegistry()

// Register adds a factory to the default registry.
func Register(name string, f Factory) { DefaultRegistry.Register(name, f) }

// Describe attaches a description to a model in the default registry.
func Describe(name, desc string) { DefaultRegistry.Describe(name, desc) }

// Description reads a model's description from the default registry.
func Description(name string) string { return DefaultRegistry.Description(name) }

// Lookup consults the default registry.
func Lookup(name string) (Factory, bool) { return DefaultRegistry.Lookup(name) }

// Names lists the default registry's model names, sorted.
func Names() []string { return DefaultRegistry.Names() }

// NewMachine constructs a model from the default registry.
func NewMachine(name string, opts ModelOptions) (Machine, error) {
	return DefaultRegistry.New(name, opts)
}
