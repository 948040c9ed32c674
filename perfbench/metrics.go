package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
// BENCHMARK.json at the repository root carries the same list with each
// metric's direction and bound; TestMetricTablesMatchBenchmarkJSON keeps
// the two in step. README.md defines each metric per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"pipeline_ms", "ms"},
	{"scenario_s", "s"},
	{"model.transfer_accuracy", "fraction"},
	{"decide_p50_ms", "ms"},
	{"decide_p99_ms", "ms"},
	{"cpu_us_per_decide", "us"},
}

// perLayer lists the metrics a traced run reports, on every workload. A
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"dataset.generate_ms", "ms"},
	{"dataset.lds_ms", "ms"},
	{"dataset.lds_bytes", "bytes"},
	{"channel.ray_traces", "count"},
	{"channel.gain_rebuilds", "count"},
	{"channel.sweeps", "count"},
	{"channel.measures", "count"},
	{"channel.noise_vector_refills", "count"},
	{"channel.bestpair_hit_ratio", "fraction"},
	{"channel.dir_gain_row_hits", "count"},
	{"channel.interferer_traces", "count"},
	{"dsp.fft_real", "count"},
	{"ml.fit_ms", "ms"},
	{"ml.tree_fits", "count"},
	{"ml.tree_fit_ms_sum", "ms"},
	{"ml.fit_parallelism", "ratio"},
	{"ml.quantize_ms", "ms"},
	{"ml.classify_ms", "ms"},
	{"ml.classify_calls", "count"},
	{"ml.classify_ns", "ns"},
	{"serve.admission_us", "us"},
	{"serve.queue_us", "us"},
	{"serve.coalesce_us", "us"},
	{"serve.predict_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.canceled", "count"},
	{"wire.client_send_ns", "ns"},
	{"wire.client_recv_ns", "ns"},
	{"decisionlog.records", "count"},
	{"decisionlog.drops", "count"},
	{"decisionlog.bytes", "bytes"},
	{"drift.windows", "count"},
	{"drift.joins", "count"},
	{"drift.trips", "count"},
	{"engine.build_s", "s"},
	{"engine.run_s", "s"},
	{"engine.events", "count"},
	{"engine.ns_per_event", "ns"},
	{"sim.slot_grants", "count"},
	{"sim.handoffs", "count"},
	{"sim.interference_verdicts", "count"},
	{"sim.timeline_breaks", "count"},
	{"mac.frames", "count"},
	{"adapt.ba_probes", "count"},
	{"adapt.ra_probes", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MiB"},
	{"go.heap_after_build_mb", "MiB"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.lag_max_ms", "ms"},
	{"share.dataset", "fraction"},
	{"share.ml", "fraction"},
	{"share.serve", "fraction"},
	{"share.wire", "fraction"},
	{"share.loadgen", "fraction"},
	{"share.engine_build", "fraction"},
	{"share.engine_run", "fraction"},
	{"share.unattributed", "fraction"},
	{"trace.overhead", "fraction"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run returns: its operation counts, the first
// few gate failures, and the values of every metric of the run's table.
// Metrics of the table it does not set read 0 (per-layer only).
type report struct {
	attempted, failed int64
	failures          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// fail counts one failed operation and keeps its reason (the first ten).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.values[name] = v }

// result renders the report against a metric table. Every end-to-end
// metric must have been set and be a positive finite number; a per-layer
// metric left unset reads 0. A value outside the table is a bug.
func (r *report) result(table []metricDef, requireAll bool) (*result, error) {
	known := make(map[string]bool, len(table))
	out := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	for _, d := range table {
		known[d.name] = true
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		if requireAll && (!ok || v <= 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range r.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the table: %v", extra)
	}
	return out, nil
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is sorted in place. It returns 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
