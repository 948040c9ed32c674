package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/sim/engine"
)

// The multiap workload: one op is engine.Build plus Engine.Run of a
// 12-AP, 192-station grid scenario over 20 s of simulated time, every
// station running the LiBRA policy with the default-seed forest, which
// set-up trains. Op 0 runs scenario seed --seed, later ops derived seeds.
//
// The decide latency is the engine's classifier (the float64 forest behind
// core.MLClassifier) on the test-campaign rows, one row per call, timed in
// a few passes before every op so that it samples the whole window;
// timing every call inside the engine is tracing, so only a traced run
// does it. CPU per decide is the CPU time of Build + Run per engine event.
//
// pipeline_ms is the set-up's model pipeline, rebuilt a few times after
// every untraced op, so that its samples, too, spread over the window
// instead of bunching in the second of set-up.

const (
	multiAPs      = 12
	multiStations = 192
	multiDuration = 20 * time.Second
	// decidePasses is how often the decide latency loop walks the test
	// rows before each op: about a thousand calls, a few milliseconds.
	decidePasses = 4
	// pipelinesPerOp is how many model rebuilds follow each untraced op:
	// about 0.4 s after an op of about 4.5 s.
	pipelinesPerOp = 3
)

// timedClassifier times every classification the engine makes in a traced
// run. The engine calls it from all its workers at once.
type timedClassifier struct {
	inner core.Classifier
	calls atomic.Int64
	lat   *hist
}

func (c *timedClassifier) Classify(f []float64) dataset.Action {
	t0 := time.Now()
	a := c.inner.Classify(f)
	c.lat.add(time.Since(t0))
	c.calls.Add(1)
	return a
}

func (c *timedClassifier) Name() string { return c.inner.Name() }

// scenarioSeed returns op i's scenario seed.
func scenarioSeed(runSeed int64, i int) uint64 {
	if i == 0 {
		return uint64(runSeed)
	}
	return uint64(deriveSeed(runSeed, i))
}

func runMultiAP(cfg runConfig) (*report, error) {
	r := newReport()
	var m *model
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if m, err = buildModel(false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	for _, err := range m.gateErrs {
		r.attempted++
		r.fail("set-up: %v", err)
	}
	clf := &core.MLClassifier{Model: m.rf}
	decide := new(hist)
	timed := &timedClassifier{inner: clf, lat: new(hist)}
	workers := runtime.GOMAXPROCS(0)

	var untraced, traced, pipelines []float64
	var buildS, runS, heap float64
	var events, allEvents int
	var cpu time.Duration
	build, run := obsDelta{}, obsDelta{}
	var callsTraced int64
	mem0 := memStats()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.dur; i++ {
		tracing := cfg.traced && i%2 == 1
		var opClf core.Classifier = clf
		if tracing {
			opClf = timed
		}
		spec := engine.Spec{
			APs: multiAPs, Stations: multiStations, Duration: multiDuration,
			Seed:       scenarioSeed(cfg.seed, i),
			Topology:   "grid",
			Params:     sim.Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond},
			Policy:     sim.LiBRA,
			Classifier: opClf,
		}
		for pass := 0; pass < decidePasses; pass++ {
			for _, x := range m.rows {
				t0 := time.Now()
				clf.Classify(x)
				decide.add(time.Since(t0))
			}
		}
		calls0 := timed.calls.Load()
		before := snapshotIf(tracing)
		cpu0 := cpuTime()
		t0 := time.Now()
		sc, err := engine.Build(spec)
		if err != nil {
			return nil, fmt.Errorf("building scenario %d: %w", spec.Seed, err)
		}
		t1 := time.Now()
		built := t1.Sub(t0)
		if tracing {
			mid := snapshotObs()
			build.add(before, mid)
			before = mid
			if heap == 0 {
				// Untimed: the forced collection is not part of the op.
				heap = liveHeapMiB()
			}
			t1 = time.Now()
		}
		res, err := engine.New(sc, workers).Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("running scenario %d: %w", spec.Seed, err)
		}
		ran := time.Since(t1)
		cpu += cpuTime() - cpu0
		op := built + ran
		if tracing {
			run.add(before, snapshotObs())
			buildS += built.Seconds()
			runS += ran.Seconds()
			events += res.Events
			callsTraced += timed.calls.Load() - calls0
			traced = append(traced, op.Seconds())
		} else {
			untraced = append(untraced, op.Seconds())
		}
		allEvents += res.Events
		r.attempted++
		if err := checkScenario(res, cfg.seed == defaultSeed && i == 0); err != nil {
			r.fail("scenario %d: %v", spec.Seed, err)
		}
		if i == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: scenario %d digest %s, %d events, %d handoffs\n",
				spec.Seed, res.Digest, res.Events, res.Handoffs)
		}
		if !cfg.traced {
			times, err := rebuildModels(r, pipelinesPerOp, false, m.accuracy)
			if err != nil {
				return nil, fmt.Errorf("rebuilding the model: %w", err)
			}
			pipelines = append(pipelines, times...)
		}
	}
	rss := peakRSSMiB()

	if !cfg.traced {
		r.set("setup_s", median(setups))
		r.set("peak_rss_mb", rss)
		r.set("pipeline_ms", median(pipelines))
		r.set("scenario_s", median(untraced))
		r.set("model.transfer_accuracy", m.accuracy)
		// Every engine event is a station's segment boundary, where its
		// adaptation policy decides; the classifier runs only on some.
		setDecide(r, decide, cpu, int64(allEvents))
		return r, nil
	}

	n := float64(len(traced))
	if n == 0 {
		return nil, fmt.Errorf("window too short for a traced op")
	}
	r.set("engine.build_s", buildS/n)
	r.set("engine.run_s", runS/n)
	r.set("engine.events", float64(events)/n)
	r.set("engine.ns_per_event", runS*1e9/float64(events))
	setChannel(r, build, n)
	per := func(name string) float64 { return run[name] / n }
	r.set("sim.slot_grants", per("libra_sim_slot_grants_total"))
	r.set("sim.handoffs", per("libra_sim_handoffs_total"))
	r.set("sim.interference_verdicts", per("libra_sim_interference_verdicts_total"))
	r.set("sim.timeline_breaks", per("libra_sim_timeline_breaks_total"))
	r.set("mac.frames", per("libra_mac_frames_total"))
	r.set("adapt.ba_probes", per("libra_adapt_ba_probes_total"))
	r.set("adapt.ra_probes", per("libra_adapt_ra_probes_total"))
	r.set("ml.classify_calls", float64(callsTraced)/n)
	r.set("ml.classify_ns", timed.lat.quantile(0.5))
	setRuntime(r, diffMem(mem0, memStats()), heap)

	var opSum float64
	for _, d := range traced {
		opSum += d
	}
	r.set("share.engine_build", buildS/opSum)
	r.set("share.engine_run", runS/opSum)
	r.set("share.unattributed", 1-(buildS+runS)/opSum)
	r.set("trace.overhead", median(traced)/median(untraced)-1)
	return r, nil
}
