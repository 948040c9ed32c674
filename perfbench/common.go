package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs"
)

// setupRepeats is how many times a run performs its set-up; setup_s
// reports the median, so one slow first pass (page faults, lazy runtime
// growth) does not decide the number.
const setupRepeats = 9

// Forest shape of every trained model: the libra-train default.
const (
	forestTrees = 80
	forestDepth = 12
)

// splitmix64 is the SplitMix64 finalizer; it derives independent input
// seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns input seed i of a run. It is positive, below 2^31,
// and never the default seed, whose inputs set-up uses.
func deriveSeed(runSeed int64, i int) int64 {
	for k := uint64(0); ; k++ {
		s := int64(splitmix64(uint64(runSeed)^splitmix64(uint64(i)<<20|k)) >> 33)
		if s != defaultSeed && s != 0 {
			return s
		}
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// narrowRows returns a campaign's feature rows rounded through float32, the
// precision the binary wire carries, with their labels.
func narrowRows(c *dataset.Campaign) (rows [][]float64, labels []int) {
	rows = make([][]float64, len(c.Entries))
	labels = make([]int, len(c.Entries))
	for i, e := range c.Entries {
		x := make([]float64, len(e.Features))
		for j, v := range e.Features {
			x[j] = float64(float32(v))
		}
		rows[i] = x
		labels[i] = int(e.Label)
	}
	return rows, labels
}

// accuracy returns the share of classes equal to their labels.
func accuracy(classes, labels []int) float64 {
	hits := 0
	for i, c := range classes {
		if c == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(labels))
}

// model is the default-seed forest the serve and multiap workloads use:
// trained on the main campaign, judged on the test campaign.
type model struct {
	main     *dataset.Campaign
	test     *dataset.Campaign
	rf       *ml.RandomForest
	q        *ml.QuantForest // nil unless quantized
	rows     [][]float64     // test-campaign rows, float32-narrowed
	labels   []int
	classes  []int // float64-forest classes of rows
	accuracy float64
	pipeline time.Duration // generate + fit (+ quantize)
	gateErrs []error
}

// buildModel runs the offline path on the default seed: generate both
// campaigns, fit the forest, and quantize it when asked. The campaign
// digests are checked against the pinned values, and the quantized forest
// against the float64 one on every test row; failures are returned in
// gateErrs, not as an error.
func buildModel(quantize bool) (*model, error) {
	t0 := time.Now()
	main := dataset.GenerateMainWorkers(defaultSeed, 0)
	test := dataset.GenerateTestWorkers(defaultSeed, 0)
	rf := &ml.RandomForest{NumTrees: forestTrees, MaxDepth: forestDepth, Seed: defaultSeed}
	if err := rf.Fit(main.ToML(true)); err != nil {
		return nil, fmt.Errorf("fitting the default-seed forest: %w", err)
	}
	m := &model{main: main, test: test, rf: rf}
	if quantize {
		q, err := rf.Quantize()
		if err != nil {
			return nil, fmt.Errorf("quantizing the default-seed forest: %w", err)
		}
		m.q = q
	}
	m.pipeline = time.Since(t0)

	if err := checkCampaignDigests(main.Digest(), test.Digest()); err != nil {
		m.gateErrs = append(m.gateErrs, err)
	}
	m.rows, m.labels = narrowRows(test)
	m.classes = rf.PredictBatch(m.rows, nil)
	if m.q != nil {
		if err := checkClasses("quantized forest", m.q.PredictBatch(m.rows, nil), m.classes); err != nil {
			m.gateErrs = append(m.gateErrs, err)
		}
	}
	m.accuracy = accuracy(m.classes, m.labels)
	return m, nil
}

// rebuildModels builds the default-seed model n more times and returns
// each build's pipeline time in milliseconds. Each build is an attempted
// op; it fails when a gate fails or its accuracy is not want, the
// accuracy of the set-up's model. An untimed collection first clears the
// garbage of the work before, so that the rebuilds do not pay for it.
func rebuildModels(r *report, n int, quantize bool, want float64) ([]float64, error) {
	runtime.GC()
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		m, err := buildModel(quantize)
		if err != nil {
			return nil, err
		}
		times = append(times, ms(m.pipeline))
		r.attempted++
		switch {
		case len(m.gateErrs) > 0:
			r.fail("model rebuild: %v", m.gateErrs[0])
		case m.accuracy != want:
			r.fail("model rebuild: accuracy %v, set-up's %v", m.accuracy, want)
		}
	}
	return times, nil
}

// obsDelta accumulates differences of obs.Default between snapshots:
// counter values under their name, histogram counts and sums under
// name+"#count" and name+"#sum".
type obsDelta map[string]float64

func snapshotObs() map[string]obs.Metric {
	snap := obs.Default.Snapshot()
	out := make(map[string]obs.Metric, len(snap))
	for _, m := range snap {
		out[m.Name] = m
	}
	return out
}

// snapshotIf snapshots obs.Default when on.
func snapshotIf(on bool) map[string]obs.Metric {
	if !on {
		return nil
	}
	return snapshotObs()
}

// add accumulates after-before for every metric.
func (d obsDelta) add(before, after map[string]obs.Metric) {
	for name, a := range after {
		b := before[name]
		switch a.Type {
		case "counter":
			d[name] += a.Value - b.Value
		case "histogram":
			d[name+"#count"] += float64(a.Count - b.Count)
			d[name+"#sum"] += a.Sum - b.Sum
		}
	}
}

// histMean returns the mean observation of a histogram's delta.
func (d obsDelta) histMean(name string) float64 {
	n := d[name+"#count"]
	if n == 0 {
		return 0
	}
	return d[name+"#sum"] / n
}

// memDelta is the runtime.MemStats difference over a traced window.
type memDelta struct {
	gcCycles  uint32
	pauseNs   uint64
	allocated uint64
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(before, after runtime.MemStats) memDelta {
	return memDelta{
		gcCycles:  after.NumGC - before.NumGC,
		pauseNs:   after.PauseTotalNs - before.PauseTotalNs,
		allocated: after.TotalAlloc - before.TotalAlloc,
	}
}

// liveHeapMiB returns the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	m := memStats()
	return float64(m.HeapAlloc) / (1 << 20)
}

// setRuntime reports the runtime per-layer metrics of a traced window.
func setRuntime(r *report, d memDelta, heapMiB float64) {
	r.set("go.gc_cycles", float64(d.gcCycles))
	r.set("go.gc_pause_ms", float64(d.pauseNs)/1e6)
	r.set("go.alloc_mb", float64(d.allocated)/(1<<20))
	r.set("go.heap_after_build_mb", heapMiB)
}

// setChannel reports the channel and dsp counters of d, divided by ops.
func setChannel(r *report, d obsDelta, ops float64) {
	per := func(name string) float64 { return d[name] / ops }
	r.set("channel.ray_traces", per("libra_channel_ray_traces_total"))
	r.set("channel.gain_rebuilds", per("libra_channel_gain_rebuilds_total"))
	r.set("channel.sweeps", per("libra_channel_sweeps_total"))
	r.set("channel.measures", per("libra_channel_measures_total"))
	r.set("channel.noise_vector_refills", per("libra_channel_noise_vector_refills_total"))
	r.set("channel.dir_gain_row_hits", per("libra_channel_dir_gain_row_hits_total"))
	r.set("channel.interferer_traces", per("libra_channel_interferer_traces_total"))
	hits, misses := d["libra_channel_bestpair_cache_hits_total"], d["libra_channel_bestpair_cache_misses_total"]
	if hits+misses > 0 {
		r.set("channel.bestpair_hit_ratio", hits/(hits+misses))
	}
	r.set("dsp.fft_real", per("libra_dsp_fft_real_total"))
}
