// Command libra-loadgen is a deterministic closed-loop traffic driver for
// the libra-serve decision service. It replays measurement-campaign feature
// vectors (fixed seed, fixed shuffle, per-worker stride) so runs are
// comparable, and reports throughput, latency percentiles, and online
// accuracy against the campaign's ground truth. Benchmarking is not its
// job: perfbench/ (bash perfbench/run.sh) is the repository's benchmark.
//
// Two modes:
//
//	-mode http      (default) drives a running libra-serve closed loop with
//	                -c workers: over HTTP/JSON (-url) by default, or over the
//	                pipelined binary decide protocol with -proto binary
//	                (-target host:port, -pipeline in-flight per worker).
//	-mode shard     self-contained fleet: loads the -model forest, verifies
//	                the quantized form classifies bit-identically to the
//	                float64 flat arrays on the campaign replay, stands up
//	                -shards coalescer shards behind the consistent-hash
//	                router with a binary listener, and drives it closed loop.
//
// Request identity is global and worker-count invariant: request g of a run
// carries req_id g and link_id g mod the replay length, whatever -c is.
// With -feedback the generator also reports each request's campaign ground
// truth back to the server — over the binary feedback frame in http mode,
// or straight into the router's join path in shard mode — so a serve-side
// audit stream (libra-serve -audit-out, or shard mode's own -audit-out)
// carries joinable truth records and libra-report can compute
// accuracy-over-window. Shard mode's -audit-out/-audit-sample write the
// fleet's LDL1 decision log in-process; because sampling keys on request
// identity, the log's canonical digest and the drift report derived from it
// are byte-identical across -c (DESIGN.md §8).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-loadgen: ")
	mode := flag.String("mode", "http", "http (drive a running server) or shard (in-process fleet)")
	url := flag.String("url", "http://127.0.0.1:8060", "server base URL (http mode, -proto json)")
	proto := flag.String("proto", "json", "http-mode protocol: json or binary")
	target := flag.String("target", "127.0.0.1:8061", "binary-protocol host:port (http mode, -proto binary)")
	pipeline := flag.Int("pipeline", 64, "in-flight requests per worker connection (binary protocol)")
	shards := flag.Int("shards", 2, "coalescer shards behind the router (shard mode)")
	conc := flag.Int("c", 64, "closed-loop workers")
	n := flag.Int("n", 100000, "timed requests")
	warm := flag.Int("warmup", 5000, "untimed warmup requests")
	seed := flag.Int64("seed", 42, "campaign + shuffle seed")
	model := flag.String("model", "", "libra-model artifact to serve (shard mode, required)")
	feedback := flag.Bool("feedback", false, "report campaign ground truth for every request (binary feedback frames in http mode, in-process joins in shard mode)")
	auditOut := flag.String("audit-out", "", "shard mode: write the fleet's per-decision LDL1 audit log to this file")
	auditSample := flag.Uint64("audit-sample", 1, "shard mode: deterministic 1-in-N audit sampling divisor")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	if *mode == "shard" && *model == "" {
		log.Fatal("-mode shard needs -model (train one with libra-train -o)")
	}
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}

	log.Printf("generating test campaign (seed %d)", *seed)
	camp := dataset.GenerateTest(*seed)
	replay := serve.NewReplay(camp, *seed)

	switch *mode {
	case "http":
		switch *proto {
		case "json":
			fmt.Println(runHTTP(*url, replay, *conc, *n, *warm))
		case "binary":
			fmt.Println(driveBinary("binary", *target, replay, newRows32(replay), *conc, *n, *warm, *pipeline, *feedback))
		default:
			log.Fatalf("unknown -proto %q (want json or binary)", *proto)
		}
	case "shard":
		runShard(replay, *conc, *n, *warm, *model, *shards, *pipeline,
			*feedback, *auditOut, *auditSample)
	default:
		log.Fatalf("unknown -mode %q (want http or shard)", *mode)
	}
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
}

// result is one closed-loop run's report.
type result struct {
	label       string
	concurrency int
	requests    int
	throughput  float64
	p50, p90    float64 // latency percentiles, ms
	p99         float64
	errors      int
	accuracy    float64
}

func (r result) String() string {
	return fmt.Sprintf("%-8s c=%d n=%d  %10.0f req/s  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  acc %.3f  errors %d",
		r.label, r.concurrency, r.requests, r.throughput, r.p50, r.p90, r.p99, r.accuracy, r.errors)
}

// timed runs issue once untimed over warm requests, then once timed over n
// requests with per-worker latency, error and hit slices, and summarizes
// the timed window.
func timed(label string, conc, n, warm int, issue func(total int, lats [][]time.Duration, errs, hits []int)) result {
	issue(warm, nil, nil, nil)
	lats := make([][]time.Duration, conc)
	for w := range lats {
		lats[w] = make([]time.Duration, 0, n/conc+1)
	}
	errs := make([]int, conc)
	hits := make([]int, conc)
	t0 := time.Now()
	issue(n, lats, errs, hits)
	elapsed := time.Since(t0)

	var all []time.Duration
	nerr, correct := 0, 0
	for w := range lats {
		all = append(all, lats[w]...)
		nerr += errs[w]
		correct += hits[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return result{
		label:       label,
		concurrency: conc,
		requests:    len(all),
		throughput:  float64(len(all)) / elapsed.Seconds(),
		p50:         pctMs(all, 0.50),
		p90:         pctMs(all, 0.90),
		p99:         pctMs(all, 0.99),
		errors:      nerr,
		accuracy:    float64(correct) / float64(len(all)),
	}
}

// runHTTP drives a running libra-serve closed-loop over HTTP.
func runHTTP(base string, replay *serve.Replay, conc, n, warm int) result {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * conc,
		MaxIdleConnsPerHost: 2 * conc,
	}}
	url := base + "/v1/decide"

	// Pre-encode every distinct request body once.
	bodies := make([][]byte, replay.Len())
	for i := range bodies {
		b := append([]byte(nil), `{"features":[`...)
		for j, v := range replay.At(i) {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		bodies[i] = append(b, `]}`...)
	}

	return timed("http", conc, n, warm, func(total int, lats [][]time.Duration, errs, hits []int) {
		done := make(chan struct{})
		for w := 0; w < conc; w++ {
			go func(w int) {
				defer func() { done <- struct{}{} }()
				var dec struct {
					ActionID int `json:"action_id"`
				}
				for i := w; i < total; i += conc {
					t0 := time.Now()
					resp, err := client.Post(url, "application/json",
						bytes.NewReader(bodies[i%len(bodies)]))
					ok := err == nil && resp.StatusCode == http.StatusOK
					correct := false
					if err == nil {
						if ok && json.NewDecoder(resp.Body).Decode(&dec) == nil {
							correct = dec.ActionID == int(replay.LabelAt(i))
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					if lats != nil {
						lats[w] = append(lats[w], time.Since(t0))
						if !ok {
							errs[w]++
						}
						if correct {
							hits[w]++
						}
					}
				}
			}(w)
		}
		for w := 0; w < conc; w++ {
			<-done
		}
	})
}

// pctMs returns the p-th percentile of sorted durations, in milliseconds.
func pctMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// newRows32 narrows the replay's feature vectors to the float32 rows the
// binary wire carries.
func newRows32(replay *serve.Replay) [][]float32 {
	rows := make([][]float32, replay.Len())
	for i := range rows {
		x := replay.At(i)
		r := make([]float32, len(x))
		for j, v := range x {
			r[j] = float32(v)
		}
		rows[i] = r
	}
	return rows
}

// driveBinary drives a binary-protocol listener closed loop: conc workers,
// each with its own connection keeping up to pipeline requests in flight,
// responses drained in FIFO order. Latency is measured submit-to-response
// (it includes the worker's own pipeline queueing — the closed-loop view).
//
// Request g of a run carries req_id g globally (worker w issues the
// residue class g ≡ w mod conc), so the set of served request identities —
// and therefore the server's deterministic audit sample — is invariant
// across worker counts. With feedback, each drained response is followed by
// a fire-and-forget ground-truth frame for its request.
func driveBinary(label, addr string, replay *serve.Replay, rows32 [][]float32,
	conc, n, warm, pipeline int, feedback bool) result {

	if pipeline < 1 {
		pipeline = 1
	}
	return timed(label, conc, n, warm, func(total int, lats [][]time.Duration, errs, hits []int) {
		done := make(chan error, conc)
		for w := 0; w < conc; w++ {
			go func(w int) {
				c, err := serve.DialBinary(addr)
				if err != nil {
					done <- err
					return
				}
				defer c.Close()
				myTotal := (total - w + conc - 1) / conc
				if myTotal <= 0 {
					done <- nil
					return
				}
				p := pipeline
				starts := make([]time.Time, p)
				idxs := make([]int, p)
				sent, recvd := 0, 0
				for recvd < myTotal {
					for sent < myTotal && sent-recvd < p {
						g := w + sent*conc
						i := g % len(rows32)
						starts[sent%p] = time.Now()
						idxs[sent%p] = i
						// The replay index doubles as the link ID, spreading
						// links across the ring.
						if err := c.Send(uint64(g), uint64(i), rows32[i], false); err != nil {
							done <- err
							return
						}
						sent++
					}
					if err := c.Flush(); err != nil {
						done <- err
						return
					}
					// Drain half the window (at least one) before topping it
					// up again, so sends stay batched while the pipe is never
					// empty.
					drain := (sent - recvd + 1) / 2
					if drain < 1 {
						drain = 1
					}
					for k := 0; k < drain; k++ {
						resp, err := c.Recv()
						if err != nil {
							done <- fmt.Errorf("%s: recv after %d: %w", label, recvd, err)
							return
						}
						g := w + recvd*conc
						if resp.ReqID != uint64(g) {
							done <- fmt.Errorf("%s: response order broken: got req %d want %d",
								label, resp.ReqID, g)
							return
						}
						idx := idxs[recvd%p]
						if lats != nil {
							lats[w] = append(lats[w], time.Since(starts[recvd%p]))
							if resp.Err != 0 {
								errs[w]++
							} else if int(resp.Action) == int(replay.LabelAt(idx)) {
								hits[w]++
							}
						}
						if feedback && resp.Err == 0 {
							if err := c.SendFeedback(uint64(g), uint64(idx), uint8(replay.LabelAt(idx))); err != nil {
								done <- err
								return
							}
						}
						recvd++
					}
				}
				if feedback {
					// The trailing feedback frames are still in the client
					// buffer; push them before the connection closes.
					if err := c.Flush(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(w)
		}
		for w := 0; w < conc; w++ {
			if err := <-done; err != nil {
				log.Fatal(err)
			}
		}
	})
}

// runShard stands up the in-process fleet — quantized forest, sharded
// router, binary wire — and drives it closed loop, so the optional audit
// log is reproducible from a fixed seed. Before serving anything it proves
// the serving representation: the quantized forest must classify the
// campaign replay bit-identically to the float64 flat arrays on the
// float32-narrowed features the wire carries.
func runShard(replay *serve.Replay, conc, n, warm int, model string, shards, pipeline int,
	feedback bool, auditOut string, auditSample uint64) {

	f, err := os.Open(model)
	if err != nil {
		log.Fatal(err)
	}
	m, err := serve.NewRegistry().Load(model, f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	rf, ok := m.Predictor().(*ml.RandomForest)
	if !ok {
		log.Fatalf("%s: shard mode needs a random-forest artifact", model)
	}
	log.Printf("serving %s from %s", m.Name, model)
	quant, err := rf.Quantize()
	if err != nil {
		log.Fatal(err)
	}

	// Parity gate: narrow every replay row to float32 (what the wire
	// carries), widen back, and demand bit-identical classes from both
	// representations. A single mismatch is fatal.
	rows32 := newRows32(replay)
	wide := make([][]float64, len(rows32))
	for i, r := range rows32 {
		x := make([]float64, len(r))
		for j, v := range r {
			x[j] = float64(v)
		}
		wide[i] = x
	}
	log.Printf("verifying quantized/float64 class parity on %d replay rows", len(wide))
	base := rf.PredictBatch(wide, nil)
	qgot := quant.PredictBatch(wide, nil)
	mismatches := 0
	for i := range base {
		if base[i] != qgot[i] {
			mismatches++
		}
	}
	if mismatches != 0 {
		log.Fatalf("quantized forest diverges from float64 flat arrays on %d of %d rows", mismatches, len(base))
	}
	log.Printf("parity holds: %d rows bit-identical", len(base))

	reg := serve.NewRegistry()
	reg.Install("loadgen-quant", quant)
	rt := serve.NewRouter(reg, serve.RouterConfig{
		Shards:    shards,
		Coalescer: serve.CoalescerConfig{MaxBatch: 64, MaxLinger: 200 * time.Microsecond, QueueDepth: 4 * conc * pipeline},
	})
	defer rt.Close()

	// The optional audit stream: every sampled decision the fleet serves
	// lands in an LDL1 log whose canonical digest is worker-count invariant
	// (sampling keys on the global request identity, never on scheduling).
	var auditLog *decisionlog.Log
	var auditFile *os.File
	if auditOut != "" {
		f, err := os.Create(auditOut)
		if err != nil {
			log.Fatal(err)
		}
		auditFile = f
		auditLog, err = decisionlog.New(f, decisionlog.Config{
			NFeat:  dataset.NumFeatures,
			Rings:  shards,
			Sample: auditSample,
		})
		if err != nil {
			log.Fatal(err)
		}
		rt.SetAudit(auditLog)
		log.Printf("audit stream on %s (1-in-%d sampling)", auditOut, max(auditSample, 1))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewBinaryServer(rt, 2*pipeline)
	go srv.Serve(ln)
	defer srv.Close()

	fmt.Println(driveBinary(fmt.Sprintf("shard-%d", shards), ln.Addr().String(), replay, rows32, conc, n, warm, pipeline, false))

	// Ground truth goes straight into the router's join path after the drive
	// — one truth per request identity, in request order — rather than over
	// the wire, so the audit stream's truth records never race a shutdown and
	// the log is reproducible byte-for-byte.
	if feedback {
		for g := 0; g < n; g++ {
			idx := g % replay.Len()
			rt.Feedback(uint64(g), uint64(idx), uint8(replay.LabelAt(idx)))
		}
		log.Printf("joined %d ground-truth labels into the audit stream", n)
	}

	// Shard accounting must add up: every admitted request on exactly one
	// shard.
	var admitted uint64
	for _, st := range rt.ShardStats() {
		admitted += st.Requests
	}
	if admitted < uint64(n) {
		log.Fatalf("shards admitted %d requests, expected at least %d", admitted, n)
	}

	// Seal the audit log before returning: stop the listener and the shards
	// (both idempotent — the deferred Closes become no-ops), then flush.
	if auditLog != nil {
		srv.Close()
		rt.Close()
		if err := auditLog.Close(); err != nil {
			log.Fatal(err)
		}
		if err := auditFile.Close(); err != nil {
			log.Fatal(err)
		}
		if d := auditLog.Drops(); d > 0 {
			log.Printf("audit log sealed with %d ring drops", d)
		}
	}
}
