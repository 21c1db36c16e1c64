package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefaultBackend is the backend used when Config.Backend is empty: the
// latch-accurate POWER6-style core model.
const DefaultBackend = "p6lite"

// Factory builds a warmed, checkpointed backend from a config.
type Factory func(cfg Config) (Backend, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register makes a backend available under name. Backend packages call it
// from init, so importing a backend package (usually with a blank import,
// like database/sql drivers) is what makes it selectable. Duplicate or
// empty names panic.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f == nil {
		panic("engine: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: backend %q registered twice", name))
	}
	registry[name] = f
}

// Resolve normalizes a backend name: "" becomes DefaultBackend. It does
// not check registration (a coordinator can plan campaigns for backends
// only its workers link in).
func Resolve(name string) string {
	if name == "" {
		return DefaultBackend
	}
	return name
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the backend selected by cfg.Backend. A factory that panics on
// a config Validate let through is reported as an error: a build runs on
// behalf of one campaign, inside processes that serve many.
func New(cfg Config) (be Backend, err error) {
	name := Resolve(cfg.Backend)
	defer func() {
		if r := recover(); r != nil {
			be, err = nil, fmt.Errorf("engine: building backend %q panicked: %v", name, r)
		}
	}()
	regMu.RLock()
	f := registry[name]
	regMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("engine: unknown backend %q (registered: %s)",
			name, strings.Join(Backends(), ", "))
	}
	return f(cfg)
}
