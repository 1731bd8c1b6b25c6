// Package telemetry is LAKE's end-to-end metrics plane: low-overhead
// atomic counters, gauges and fixed-bucket histograms shared by every layer
// of the runtime — boundary transport, remoting, lakeD dispatch, the
// batcher, the GPU model and the supervisor.
//
// The paper's core argument is quantitative: Fig 3's profitability
// crossovers and §6's per-API breakdown both depend on knowing where time
// goes across the kernel↔user boundary. This package makes that signal
// always available at runtime instead of only inside ad-hoc experiment
// harnesses: subsystems hold direct instrument pointers (no map lookup on
// the hot path), every mutation is a handful of atomic operations with no
// allocation, and the whole registry can be exposed as Prometheus text or a
// JSON snapshot (core.Runtime.Telemetry, laked -telemetry-addr,
// lakebench -metrics).
//
// Instruments are nil-safe: methods on a nil *Counter, *Gauge or
// *Histogram are no-ops, so a runtime built with telemetry disabled pays
// only an untaken nil-check branch per site.
//
// Clock semantics: latency observations are virtual time (internal/vtime) —
// deterministic simulated nanoseconds. Per-call stage timelines come from
// the flight recorder (internal/flightrec), not from this package.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Shared instrument names. The batcher, the offload runner and the Fig 3
// policy feedback all refer to the same observed-latency histograms; naming
// them once keeps the writers and the reader wired to the same series.
const (
	// MetricGPUItemLatency aggregates observed per-item virtual latency of
	// GPU-routed inference (batcher flushes and offload runs).
	MetricGPUItemLatency = "lake_gpu_item_latency_ns"
	// MetricCPUItemLatency is the CPU-fallback counterpart.
	MetricCPUItemLatency = "lake_cpu_item_latency_ns"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add applies a delta (queue depths go both ways).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds a process's named instruments. Instruments are
// get-or-create by full name (which may carry Prometheus-style labels, e.g.
// `lake_boundary_sent_total{channel="Netlink"}`). A nil *Registry hands out
// nil instruments, so callers wire telemetry unconditionally and pay nothing
// when it is disabled.
type Registry struct {
	mu      sync.Mutex
	order   []string // registration order, for stable exposition
	metrics map[string]interface{}
	help    map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]interface{}),
		help:    make(map[string]string),
	}
}

// register get-or-creates the named instrument using mk; an existing entry
// must have the matching type (a mismatch is a programming error).
func (r *Registry) register(name, help string, mk func() interface{}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	r.help[name] = help
	r.order = append(r.order, name)
	return m
}

// Counter get-or-creates a counter (nil for a nil registry).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, func() interface{} { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return c
}

// Gauge get-or-creates a gauge (nil for a nil registry).
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, func() interface{} { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return g
}

// Histogram get-or-creates a histogram with the given bucket upper bounds
// (nil for a nil registry). Bounds are only consulted on first creation.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, help, func() interface{} { return NewHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return h
}

// names returns the registered names in registration order; sortedNames in
// lexical order grouped for exposition.
func (r *Registry) snapshotLocked() ([]string, map[string]interface{}, map[string]string) {
	names := make([]string, len(r.order))
	copy(names, r.order)
	metrics := make(map[string]interface{}, len(r.metrics))
	help := make(map[string]string, len(r.help))
	for k, v := range r.metrics {
		metrics[k] = v
		help[k] = r.help[k]
	}
	return names, metrics, help
}

// splitName separates a full metric name into its family and label part:
// `foo{a="b"}` -> (`foo`, `{a="b"}`); a plain name has an empty label part.
func splitName(name string) (family, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i:]
		}
	}
	return name, ""
}

// sortedByFamily returns names sorted so that series of the same family are
// adjacent (Prometheus exposition requires family grouping).
func sortedByFamily(names []string) []string {
	out := make([]string, len(names))
	copy(out, names)
	sort.SliceStable(out, func(i, j int) bool {
		fi, _ := splitName(out[i])
		fj, _ := splitName(out[j])
		if fi != fj {
			return fi < fj
		}
		return out[i] < out[j]
	})
	return out
}
