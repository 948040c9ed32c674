package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMetricTablesMatchBenchmarkJSON keeps the workloads and metric tables
// in step with BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the table %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], table %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestReportResult(t *testing.T) {
	r := newReport()
	r.attempted = 3
	for _, d := range endToEnd {
		r.set(d.name, 1.5)
	}
	res, err := r.result(endToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) || res.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("unexpected result %+v", res)
	}

	r.fail("gate %d", 1)
	if res, _ := r.result(endToEnd, true); res.Correct || res.Failed != 1 {
		t.Errorf("a failed op left the run correct: %+v", res)
	}
	r.set("setup_s", 0)
	if _, err := r.result(endToEnd, true); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
	r.set("setup_s", math.NaN())
	if _, err := r.result(endToEnd, true); err == nil {
		t.Error("a NaN metric was accepted")
	}
	r.set("setup_s", 1)
	r.set("no_such_metric", 1)
	if _, err := r.result(endToEnd, true); err == nil {
		t.Error("a metric outside the table was accepted")
	}

	traced := newReport()
	traced.attempted = 1
	res, err = traced.result(perLayer, false)
	if err != nil || len(res.Metrics) != len(perLayer) {
		t.Fatalf("an empty traced report: %v, %d metrics", err, len(res.Metrics))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values %v", got)
	}
}

func TestDeriveSeedAvoidsDefault(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := deriveSeed(3, i)
		if s <= 0 || s == defaultSeed || s >= 1<<31 {
			t.Fatalf("derived seed %d", s)
		}
		seen[s] = true
	}
	if len(seen) < 999 {
		t.Errorf("only %d distinct seeds in 1000", len(seen))
	}
	if deriveSeed(3, 5) != deriveSeed(3, 5) || deriveSeed(3, 5) == deriveSeed(4, 5) {
		t.Error("derived seeds are not a function of (run seed, index)")
	}
}

// The smoke tests run each workload briefly end to end: every gate must
// pass and every end-to-end metric be reported.
func smoke(t *testing.T, name string, dur time.Duration) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the workload")
	}
	rep, err := workloads[name](runConfig{seed: 1, dur: dur, scratch: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.result(endToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, rep.failures)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t.Logf("%s: %d ops, metrics %v", name, res.Attempted, keys)
}

func TestSmokeCampaignTrain(t *testing.T) { smoke(t, "campaign-train", time.Millisecond) }
func TestSmokeServe(t *testing.T)         { smoke(t, "serve-r120k", 2*time.Second) }
func TestSmokeMultiAP(t *testing.T)       { smoke(t, "multiap", time.Millisecond) }
