package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
)

// The campaign-train workload: the offline path, one seed per op.
//
// One op for seed s generates the main and test campaigns, round-trips
// both through the .lds container (training reads the read-back copy),
// fits the 80x12 forest, quantizes it, and classifies the test campaign
// with both forests plus once per row through the quantized one (the
// single-row decide latency). Set-up is the same op on defaultSeed,
// whose campaign digests are pinned.

// Pipeline stages, timed in traced ops.
const (
	stageGenerate = iota
	stageLDS
	stageFit
	stageQuantize
	stageClassify
	numStages
)

// pipeline runs ops and holds what they share.
type pipeline struct {
	workers int
	buf     bytes.Buffer
	decide  *hist // per-row quantized decide latency
	rows    int64 // rows decided
	stages  [numStages]time.Duration
	traced  bool // time the stages of the next op
}

// opOut is what one op reports besides its gates.
type opOut struct {
	mainDigest, testDigest string
	accuracy               float64
}

// stage adds the time since t0 to stage i when tracing and returns now.
func (p *pipeline) stage(i int, t0 time.Time) time.Time {
	if !p.traced {
		return t0
	}
	now := time.Now()
	p.stages[i] += now.Sub(t0)
	return now
}

// op runs the pipeline on one seed. A gate failure is returned as an error.
func (p *pipeline) op(seed int64) (opOut, error) {
	var t time.Time
	if p.traced {
		t = time.Now()
	}
	main := dataset.GenerateMainWorkers(seed, 0)
	test := dataset.GenerateTestWorkers(seed, 0)
	t = p.stage(stageGenerate, t)

	var out opOut
	main2, digest, err := ldsRoundTrip(main, &p.buf, p.workers)
	out.mainDigest = digest
	if err != nil {
		return out, fmt.Errorf("seed %d main campaign: %w", seed, err)
	}
	test2, digest, err := ldsRoundTrip(test, &p.buf, p.workers)
	out.testDigest = digest
	if err != nil {
		return out, fmt.Errorf("seed %d test campaign: %w", seed, err)
	}
	t = p.stage(stageLDS, t)

	rf := &ml.RandomForest{NumTrees: forestTrees, MaxDepth: forestDepth, Seed: seed}
	if err := rf.Fit(main2.ToML(true)); err != nil {
		return out, fmt.Errorf("seed %d fit: %w", seed, err)
	}
	t = p.stage(stageFit, t)
	q, err := rf.Quantize()
	if err != nil {
		return out, fmt.Errorf("seed %d quantize: %w", seed, err)
	}
	t = p.stage(stageQuantize, t)

	rows, labels := narrowRows(test2)
	want := rf.PredictBatch(rows, nil)
	got := q.PredictBatch(rows, nil)
	for i, x := range rows {
		t0 := time.Now()
		c := q.Predict(x)
		p.decide.add(time.Since(t0))
		if c != got[i] {
			return out, fmt.Errorf("seed %d: row %d single-row class %d, batch class %d", seed, i, c, got[i])
		}
	}
	p.rows += int64(len(rows))
	p.stage(stageClassify, t)
	if err := checkClasses("quantized forest", got, want); err != nil {
		return out, fmt.Errorf("seed %d: %w", seed, err)
	}
	out.accuracy = accuracy(got, labels)
	return out, nil
}

func runCampaignTrain(cfg runConfig) (*report, error) {
	r := newReport()
	p := &pipeline{workers: runtime.GOMAXPROCS(0), decide: new(hist)}

	setups := make([]float64, 0, setupRepeats)
	var warm opOut
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		out, err := p.op(defaultSeed)
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil {
			err = checkCampaignDigests(out.mainDigest, out.testDigest)
		}
		if err != nil {
			r.attempted++
			r.fail("warm-up: %v", err)
		}
		warm = out
	}
	var heap float64
	if cfg.traced {
		heap = liveHeapMiB()
	}
	p.decide = new(hist)
	p.rows = 0

	// The measured window. A traced run alternates untraced and traced ops,
	// so the two medians give the tracing overhead.
	var untraced, traced []float64
	deltas := obsDelta{}
	mem0 := memStats()
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.dur; i++ {
		p.traced = cfg.traced && i%2 == 1
		before := snapshotIf(p.traced)
		t0 := time.Now()
		_, err := p.op(deriveSeed(cfg.seed, i))
		d := ms(time.Since(t0))
		if p.traced {
			deltas.add(before, snapshotObs())
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		r.attempted++
		if err != nil {
			r.fail("%v", err)
		}
	}
	cpu := cpuTime() - cpu0
	rss := peakRSSMiB()

	if !cfg.traced {
		r.set("setup_s", median(setups))
		r.set("peak_rss_mb", rss)
		op := median(untraced)
		r.set("pipeline_ms", op)
		r.set("scenario_s", op/1e3)
		r.set("model.transfer_accuracy", warm.accuracy)
		setDecide(r, p.decide, cpu, p.rows)
		return r, nil
	}

	n := float64(len(traced))
	if n == 0 {
		return nil, fmt.Errorf("window too short for a traced op")
	}
	var opSum float64
	for _, d := range traced {
		opSum += d
	}
	st := func(i int) float64 { return ms(p.stages[i]) / n }
	r.set("dataset.generate_ms", st(stageGenerate))
	r.set("dataset.lds_ms", st(stageLDS))
	r.set("dataset.lds_bytes", deltas["libra_dataset_lds_bytes_written_total"]/n)
	r.set("ml.fit_ms", st(stageFit))
	r.set("ml.tree_fits", deltas["libra_ml_tree_fits_total"]/n)
	treeMs := deltas["libra_ml_tree_fit_seconds#sum"] * 1e3 / n
	r.set("ml.tree_fit_ms_sum", treeMs)
	r.set("ml.fit_parallelism", treeMs/st(stageFit))
	r.set("ml.quantize_ms", st(stageQuantize))
	r.set("ml.classify_ms", st(stageClassify))
	setChannel(r, deltas, n)
	setRuntime(r, diffMem(mem0, memStats()), heap)

	dataShare := (st(stageGenerate) + st(stageLDS)) / (opSum / n)
	mlShare := (st(stageFit) + st(stageQuantize) + st(stageClassify)) / (opSum / n)
	r.set("share.dataset", dataShare)
	r.set("share.ml", mlShare)
	r.set("share.unattributed", 1-dataShare-mlShare)
	r.set("trace.overhead", median(traced)/median(untraced)-1)
	return r, nil
}

// setDecide reports the decide latency percentiles and CPU per decision.
func setDecide(r *report, h *hist, cpu time.Duration, decisions int64) {
	n := h.count()
	r.set("decide_p50_ms", h.quantile(0.5)/1e6)
	r.set("decide_p99_ms", h.quantile(tailQuantile(n))/1e6)
	if decisions > 0 {
		r.set("cpu_us_per_decide", float64(cpu)/1e3/float64(decisions))
	}
}
