// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in-process for a fixed wall-clock budget, checks the outputs of
// every operation, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload campaign-train --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	campaign-train  campaign generation -> .lds round trip -> forest fit ->
//	                quantize -> classify, one seed of a seed list per op
//	serve-r120k     open-loop decides at 120k/s over the binary wire into a
//	                2-shard router, with audit log and drift monitor
//	multiap         multi-AP scenario Build + Run, 12 APs x 192 stations
//
// --seed derives every input; the same seed gives the same inputs. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it times
// the calls into each layer and reports the per-layer metrics instead.
// README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloads maps --workload names to their runners.
var workloads = map[string]func(runConfig) (*report, error){
	"campaign-train": runCampaignTrain,
	"serve-r120k":    func(c runConfig) (*report, error) { return runServe(c, 120000) },
	"multiap":        runMultiAP,
}

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	dur     time.Duration // measured window
	traced  bool
	scratch string // directory for files the run writes
}

func main() {
	name := flag.String("workload", "", "workload: campaign-train, serve-r120k or multiap")
	seed := flag.Int64("seed", defaultSeed, "seed every input is derived from")
	seconds := flag.Float64("seconds", 30, "measured wall-clock window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for files the run writes")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown --workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		scratch: *scratch,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %v window, trace %d, GOMAXPROCS %d\n",
		*name, cfg.seed, cfg.dur, *trace, runtime.GOMAXPROCS(0))

	rep, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	table := endToEnd
	if cfg.traced {
		table = perLayer
	}
	res, err := rep.result(table, !cfg.traced)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
