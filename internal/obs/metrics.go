// Package obs is the repository's stdlib-only observability layer. It keeps
// two clocks strictly apart:
//
//   - The metrics registry (this file, export.go) records engine-side
//     wall-clock facts: worker-pool occupancy, cache hit/miss counts, FFT
//     scratch reuse, tree-fit timings. Values are process-local diagnostics
//     and never feed simulation results, so the wall-clock reads here carry
//     //lint:wallclock annotations (see Stopwatch); libra-lint's determinism
//     analyzer flags unannotated time.Now and time.Since everywhere in the
//     library, including this package's own sim-time tracer, and its
//     clocksep analyzer proves no call path from the tracer reaches these
//     annotated readers.
//   - The simulation-time tracer (trace.go) records spans and events stamped
//     exclusively with deterministic frame/slot/codeword time, buffered per
//     deterministic stream and merged in stream order, so trace output is
//     byte-identical for any worker count.
//
// Metric naming follows Prometheus conventions:
// libra_<subsystem>_<noun>_<unit>, with _total for counters and base-unit
// suffixes (_seconds) for histograms. A metric name may carry a fixed label
// set in curly braces (e.g. `libra_adapt_ba_runs_total{algo="standard-sls"}`);
// the registry treats the full string as the key and the exporters emit it
// verbatim.
//
// The hot-path contract: Counter.Inc, Gauge.Add and Histogram.Observe are
// single atomic operations (plus a CAS loop for float sums), allocation-free,
// and safe for concurrent use. Instrumented packages register their metrics
// in package-level vars at init, so steady state costs no map lookups.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is an integer value that can go up and down (pool occupancy,
// queue depth). It additionally tracks the high-water mark seen since the
// last Reset, which is what a post-run snapshot needs: the interesting fact
// about a worker pool is its peak occupancy, not the zero it reads after
// Wait returns.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores v and raises the high-water mark if needed.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.raise(v)
}

// Add adds d (which may be negative) and returns nothing; the high-water
// mark observes the new value.
func (g *Gauge) Add(d int64) {
	g.raise(g.v.Add(d))
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark since the last Reset.
func (g *Gauge) Max() int64 { return g.max.Load() }

func (g *Gauge) raise(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// A FloatGauge is a float-valued gauge for statistics that are not integer
// counts (drift PSI, KS distance, windowed accuracy). It stores the value's
// IEEE-754 bits atomically and, like Gauge, tracks the high-water mark since
// the last Reset — for drift statistics the peak since start is exactly what
// a post-incident scrape needs.
type FloatGauge struct {
	v   atomic.Uint64 // float64 bits
	max atomic.Uint64 // float64 bits
}

// Set stores v and raises the high-water mark if needed.
func (g *FloatGauge) Set(v float64) {
	g.v.Store(math.Float64bits(v))
	for {
		old := g.max.Load()
		if v <= math.Float64frombits(old) || g.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Max returns the high-water mark since the last Reset.
func (g *FloatGauge) Max() float64 { return math.Float64frombits(g.max.Load()) }

// A Histogram counts observations into fixed buckets. Bucket bounds are set
// at registration and never change; Observe is lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets is the default bucket layout for timing histograms:
// 100 microseconds to ~5 seconds in roughly 3x steps.
var DurationBuckets = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 5}

// metricKind discriminates the registry's entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

// entry is one registered metric.
type entry struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	f    *FloatGauge
	h    *Histogram
}

// A Registry holds named metrics. Registration takes a lock; reads and
// updates of the registered metrics do not.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// Default is the process-wide registry the instrumented packages register
// into and the -metrics-out flag exports.
var Default = NewRegistry()

// Counter registers (or returns the already-registered) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.register(name, help, kindCounter)
	return e.c
}

// Gauge registers (or returns the already-registered) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.register(name, help, kindGauge)
	return e.g
}

// FloatGauge registers (or returns the already-registered) float gauge
// under name.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	e := r.register(name, help, kindFloatGauge)
	return e.f
}

// Histogram registers (or returns the already-registered) histogram under
// name with the given bucket upper bounds (ascending; an implicit +Inf
// bucket is appended).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.h
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.entries[name] = &entry{name: name, help: help, kind: kindHistogram, h: h}
	return h
}

func (r *Registry) register(name, help string, kind metricKind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e
	}
	e := &entry{name: name, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindFloatGauge:
		e.f = &FloatGauge{}
	}
	r.entries[name] = e
	return e
}

// Reset zeroes every registered metric's value (registrations survive).
// Benchmarks and tests use it to measure deltas over a bounded workload.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		switch e.kind {
		case kindCounter:
			e.c.v.Store(0)
		case kindGauge:
			e.g.v.Store(0)
			e.g.max.Store(0)
		case kindFloatGauge:
			e.f.v.Store(0)
			e.f.max.Store(0)
		case kindHistogram:
			for i := range e.h.counts {
				e.h.counts[i].Store(0)
			}
			e.h.count.Store(0)
			e.h.sum.Store(0)
		}
	}
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewFloatGauge registers a float gauge in the Default registry.
func NewFloatGauge(name, help string) *FloatGauge { return Default.FloatGauge(name, help) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// A Stopwatch measures one wall-clock duration for a timing histogram. It is
// the only sanctioned way for engine code to touch the wall clock: the
// time.Now calls live here, inside obs's metrics path, under verified
// //lint:wallclock annotations.
type Stopwatch struct {
	t0 time.Time
}

// StartTimer starts a stopwatch.
//
//lint:wallclock engine-side latency histograms measure real elapsed time
func StartTimer() Stopwatch { return Stopwatch{t0: time.Now()} }

// Observe records the elapsed seconds into h.
//
//lint:wallclock engine-side latency histograms measure real elapsed time
func (s Stopwatch) Observe(h *Histogram) {
	h.Observe(time.Since(s.t0).Seconds())
}
