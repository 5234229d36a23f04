package telemetry

import (
	"sort"
	"sync"
)

// Registry is a named collection of Metrics — the serving layer's view of
// telemetry, where many mining jobs run concurrently and each needs its own
// collector while operators want one aggregated picture. All methods are
// safe for concurrent use; the per-job Metrics themselves stay lock-free.
//
// A nil *Registry is inert: Get returns nil (which Metrics methods accept),
// and the other methods are no-ops — so code can thread an optional registry
// without conditionals, mirroring the nil-safe Metrics discipline.
type Registry struct {
	mu      sync.RWMutex
	m       map[string]*Metrics
	retired Snapshot // counters and timers of the collectors removed so far
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Metrics)}
}

// Get returns the Metrics registered under name, creating one if absent.
func (r *Registry) Get(name string) *Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.m[name]
	if !ok {
		m = &Metrics{}
		r.m[name] = m
	}
	return m
}

// Lookup returns the Metrics registered under name, or nil.
func (r *Registry) Lookup(name string) *Metrics {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[name]
}

// Remove drops the named Metrics, folding its counters and timers into the
// registry's retired totals so Aggregate never goes backwards. Call it once
// the collector records nothing more. Snapshots taken before removal stay
// valid; the collector itself is no longer reachable through the registry.
func (r *Registry) Remove(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.m[name]; ok {
		s := m.Snapshot()
		r.retired.add(&s)
		delete(r.m, name)
	}
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Aggregate sums every counter and timer over the registered collectors and
// the removed ones — the operator's one-line view of a busy server, which
// only rises over the registry's lifetime. Gauges, histograms and per-phase
// attribution are left to the per-job snapshots.
func (r *Registry) Aggregate() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	total := r.retired
	live := make([]*Metrics, 0, len(r.m))
	for _, m := range r.m {
		live = append(live, m)
	}
	r.mu.RUnlock()
	for _, m := range live {
		s := m.Snapshot()
		total.add(&s)
	}
	return total
}
