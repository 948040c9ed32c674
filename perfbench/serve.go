package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/obs/drift"
	"github.com/libra-wlan/libra/internal/serve"
)

// The serve-r120k workload: open-loop decides over the binary wire.
//
// Set-up builds the default-seed model (quantized), a 2-shard Router with
// an LDL1 audit log sampling 1 in 64 decisions and a drift monitor on the
// log's writer tap, a BinaryServer on a loopback listener, and one
// connection per CPU. Requests replay the default-seed test campaign in
// the order serve.NewReplay draws from --seed.
//
// The load generator follows a computed arrival schedule. Each connection
// has exactly one goroutine, which sends every request that has come due
// (a tick), then reads responses; while it waits in a read, the read
// deadline is the next due time, so it wakes to send the next tick.
// Timers on a small host fire late, so a tick may carry many requests;
// each request is timed from its due time, which charges that lateness to
// the latency, and the lateness itself is reported as loadgen lag.

const (
	serveShards   = 2
	auditSample   = 64
	serveMaxBatch = 64
	serveLinger   = 200 * time.Microsecond
	// serveQueue and servePipeline are deep enough that a stall of tens of
	// milliseconds at 120k/s queues instead of shedding.
	serveQueue    = 16384
	servePipeline = 16384
	warmup        = time.Second
	// watchdog bounds any wait on the server; a run that hits it fails.
	watchdog = 60 * time.Second
)

// Request-ID bases of the phases, far apart so IDs never collide.
const (
	baseWarmup   = 1 << 40
	baseTimed    = 2 << 40
	baseUntraced = 3 << 40
	baseTraced   = 4 << 40
)

// serveRig is one set-up: model, server, audit log, connections.
type serveRig struct {
	m       *model
	rows32  [][]float32
	classes []int // float64-forest class per replay row
	labels  []int

	rt       *serve.Router
	srv      *serve.BinaryServer
	served   chan error
	auditF   *os.File
	auditLog *decisionlog.Log
	mon      *drift.Monitor
	conns    []*connGen

	// phases records (base, n) of every phase run, for the audit count.
	phases [][2]int
}

// newServeRig builds the rig; it is the timed set-up.
func newServeRig(seed int64, auditPath string) (*serveRig, error) {
	m, err := buildModel(true)
	if err != nil {
		return nil, err
	}
	rig := &serveRig{m: m}

	// The replay order comes from the run seed; rows and labels are the
	// default-seed test campaign's, narrowed to the wire's float32.
	replay := serve.NewReplay(m.test, seed)
	rows := make([][]float64, replay.Len())
	rig.rows32 = make([][]float32, replay.Len())
	rig.labels = make([]int, replay.Len())
	for i := range rows {
		x := replay.At(i)
		r32 := make([]float32, len(x))
		w := make([]float64, len(x))
		for j, v := range x {
			r32[j] = float32(v)
			w[j] = float64(r32[j])
		}
		rig.rows32[i], rows[i] = r32, w
		rig.labels[i] = int(replay.LabelAt(i))
	}
	rig.classes = m.rf.PredictBatch(rows, nil)

	reg := serve.NewRegistry()
	reg.Install("perfbench-quant32", m.q)
	rig.rt = serve.NewRouter(reg, serve.RouterConfig{
		Shards:    serveShards,
		Coalescer: serve.CoalescerConfig{MaxBatch: serveMaxBatch, MaxLinger: serveLinger, QueueDepth: serveQueue},
	})

	prof, err := ml.ReferenceProfile(m.main.Name, m.main.ToML(true), 10)
	if err != nil {
		rig.rt.Close()
		return nil, err
	}
	rig.mon, err = drift.NewMonitor(drift.Config{Profile: prof})
	if err != nil {
		rig.rt.Close()
		return nil, err
	}
	rig.auditF, err = os.Create(auditPath)
	if err != nil {
		rig.rt.Close()
		return nil, err
	}
	rig.auditLog, err = decisionlog.New(rig.auditF, decisionlog.Config{
		NFeat:    dataset.NumFeatures,
		Rings:    serveShards,
		Sample:   auditSample,
		OnRecord: rig.mon.Observe,
	})
	if err != nil {
		rig.auditF.Close()
		rig.rt.Close()
		return nil, err
	}
	rig.rt.SetAudit(rig.auditLog)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.srv = serve.NewBinaryServer(rig.rt, servePipeline)
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.srv.Serve(ln) }()

	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n; i++ {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			rig.close()
			return nil, err
		}
		pc := &pacedConn{Conn: raw}
		cl, err := serve.NewBinaryClient(pc)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.conns = append(rig.conns, &connGen{
			pc: pc, cl: cl, id: i, stride: n,
			rows32: rig.rows32, classes: rig.classes, labels: rig.labels,
		})
	}
	return rig, nil
}

// close tears the rig down in dependency order and seals the audit log.
func (rig *serveRig) close() error {
	for _, d := range rig.conns {
		d.cl.Close()
	}
	if rig.srv != nil {
		rig.srv.Close()
		<-rig.served
	}
	rig.rt.Close()
	err := rig.auditLog.Close()
	if cerr := rig.auditF.Close(); err == nil {
		err = cerr
	}
	return err
}

// expectedAuditRecords is the record count the deterministic sampling
// predicts for every phase run: a decision and its truth per sampled
// request, and a decision per sampled fence.
func (rig *serveRig) expectedAuditRecords() int {
	n := 0
	L := len(rig.rows32)
	for _, ph := range rig.phases {
		base, count := uint64(ph[0]), ph[1]
		for g := 0; g < count+len(rig.conns); g++ {
			if decisionlog.Sampled(auditSample, base+uint64(g), uint64(g%L)) {
				if g < count {
					n += 2
				} else {
					n++
				}
			}
		}
	}
	return n
}

// phaseResult merges the connections' view of one phase.
type phaseResult struct {
	lat, lag     *hist
	lagMax       time.Duration
	latSum       time.Duration
	lagSum       time.Duration
	send         time.Duration // traced: inside Send
	recvSelf     time.Duration // traced: inside Recv, minus its reads' waits
	ok, failed   int64
	failures     []string
	drainSeconds []float64 // per whole second of schedule
}

// phase drives one open-loop schedule over every connection and waits for
// all responses plus one fence request per connection, which guarantees
// the server has handled every earlier frame, feedback included.
func (rig *serveRig) phase(rate float64, dur time.Duration, base int, traced bool) (*phaseResult, error) {
	sched := newSchedule(rate, dur)
	rig.phases = append(rig.phases, [2]int{base, sched.n})
	start := time.Now().Add(time.Millisecond)
	errs := make(chan error, len(rig.conns))
	for _, d := range rig.conns {
		d.reset(sched, start, uint64(base), traced)
		go func(d *connGen) { errs <- d.run() }(d)
	}
	var first error
	for range rig.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}

	res := &phaseResult{lat: new(hist), lag: new(hist)}
	windows := int(dur / time.Second)
	for w := 0; w < windows; w++ {
		var last time.Duration
		for _, d := range rig.conns {
			last = max(last, d.winLast[w])
		}
		res.drainSeconds = append(res.drainSeconds, (last - time.Duration(w)*time.Second).Seconds())
	}
	for _, d := range rig.conns {
		res.lat.merge(d.lat)
		res.lag.merge(d.lag)
		res.lagMax = max(res.lagMax, d.lagMax)
		res.latSum += d.latSum
		res.lagSum += d.lagSum
		res.send += d.sendTime
		res.recvSelf += d.recvTime - d.pc.readTime
		res.ok += d.ok
		res.failed += d.failed
		res.failures = append(res.failures, d.failures...)
	}
	return res, nil
}

func runServe(cfg runConfig, rate float64) (*report, error) {
	r := newReport()
	auditPath := func(i int) string {
		return filepath.Join(cfg.scratch, fmt.Sprintf("audit-%d-%d.ldl", os.Getpid(), i))
	}

	var rig *serveRig
	setups := make([]float64, 0, setupRepeats)
	pipelines := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
			os.Remove(auditPath(i - 1))
		}
		t0 := time.Now()
		var err error
		rig, err = newServeRig(cfg.seed, auditPath(i))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		pipelines = append(pipelines, ms(rig.m.pipeline))
	}
	path := auditPath(setupRepeats - 1)
	defer os.Remove(path)
	for _, err := range rig.m.gateErrs {
		r.attempted++
		r.fail("set-up: %v", err)
	}
	var heap float64
	if cfg.traced {
		heap = liveHeapMiB()
	}

	if _, err := rig.phase(rate, warmup, baseWarmup, false); err != nil {
		rig.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var res, untraced *phaseResult
	var cpu time.Duration
	var rss float64
	deltas := obsDelta{}
	var mem memDelta
	var err error
	if !cfg.traced {
		cpu0 := cpuTime()
		res, err = rig.phase(rate, cfg.dur, baseTimed, false)
		cpu = cpuTime() - cpu0
		rss = peakRSSMiB()
	} else {
		untraced, err = rig.phase(rate, cfg.dur/2, baseUntraced, false)
		if err == nil {
			mem0 := memStats()
			before := snapshotObs()
			res, err = rig.phase(rate, cfg.dur/2, baseTraced, true)
			deltas.add(before, snapshotObs())
			mem = diffMem(mem0, memStats())
		}
	}
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		// As many pipeline samples again after the window as in set-up,
		// so that the median does not rest on one second of the run.
		times, err := rebuildModels(r, setupRepeats, true, rig.m.accuracy)
		if err != nil {
			return nil, fmt.Errorf("rebuilding the model: %w", err)
		}
		pipelines = append(pipelines, times...)
	}

	r.attempted += res.ok + res.failed
	r.failed += res.failed
	r.failures = append(r.failures, res.failures...)
	if untraced != nil {
		r.failed += untraced.failed
		r.attempted += untraced.ok + untraced.failed
		r.failures = append(r.failures, untraced.failures...)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := checkAuditLog(data, rig.expectedAuditRecords()); err != nil {
		r.attempted++
		r.fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d decides, loadgen lag p99 %.3f ms max %.3f ms, drift windows %d\n",
		res.ok, res.lag.quantile(0.99)/1e6, ms(res.lagMax), len(rig.mon.Windows()))

	if !cfg.traced {
		r.set("setup_s", median(setups))
		r.set("peak_rss_mb", rss)
		r.set("pipeline_ms", median(pipelines))
		r.set("scenario_s", median(res.drainSeconds))
		r.set("model.transfer_accuracy", rig.m.accuracy)
		setDecide(r, res.lat, cpu, res.ok)
		return r, nil
	}

	stage := func(s string) float64 {
		return deltas.histMean(`libra_serve_stage_seconds{stage="`+s+`"}`) * 1e6
	}
	r.set("serve.admission_us", stage("admission"))
	r.set("serve.queue_us", stage("queue"))
	r.set("serve.coalesce_us", stage("coalesce"))
	r.set("serve.predict_us", stage("predict"))
	r.set("serve.encode_us", stage("encode"))
	r.set("serve.batch_size_mean", deltas.histMean("libra_serve_batch_size"))
	r.set("serve.shed", deltas["libra_serve_shed_total"])
	r.set("serve.errors", deltas["libra_serve_errors_total"])
	r.set("serve.canceled", deltas["libra_serve_canceled_total"])
	r.set("decisionlog.records", deltas["libra_audit_records_total"])
	r.set("decisionlog.drops", deltas["libra_audit_drops_total"])
	r.set("decisionlog.bytes", deltas["libra_audit_bytes_total"])
	r.set("drift.windows", deltas["libra_drift_windows_total"])
	r.set("drift.joins", deltas["libra_drift_joins_total"])
	r.set("drift.trips", deltas["libra_drift_trips_total"])
	reqs := float64(res.ok + res.failed)
	r.set("wire.client_send_ns", float64(res.send)/reqs)
	r.set("wire.client_recv_ns", float64(res.recvSelf)/reqs)
	r.set("loadgen.lag_p99_ms", res.lag.quantile(0.99)/1e6)
	r.set("loadgen.lag_max_ms", ms(res.lagMax))
	setRuntime(r, mem, heap)

	// Shares of the mean decide latency (due time to response).
	meanLat := float64(res.latSum) / reqs
	server := (stage("admission") + stage("queue") + stage("coalesce") + stage("predict") + stage("encode")) * 1e3 / meanLat
	wire := float64(res.send+res.recvSelf) / reqs / meanLat
	lag := float64(res.lagSum) / reqs / meanLat
	r.set("share.serve", server)
	r.set("share.wire", wire)
	r.set("share.loadgen", lag)
	r.set("share.unattributed", 1-server-wire-lag)
	r.set("trace.overhead", res.lat.quantile(0.5)/untraced.lat.quantile(0.5)-1)
	return r, nil
}

// connGen is one connection's share of the schedule: requests g with
// g mod stride == id, driven by one goroutine.
type connGen struct {
	pc         *pacedConn
	cl         *serve.BinaryClient
	id, stride int
	rows32     [][]float32
	classes    []int
	labels     []int

	// Per phase.
	sched       schedule
	start       time.Time
	deadline    time.Time
	base        uint64
	total       int
	sent, recvd int
	traced      bool
	feedback    bool // feedback frames wait in the client buffer
	lat, lag    *hist
	latSum      time.Duration
	lagSum      time.Duration
	lagMax      time.Duration
	winLast     []time.Duration // latest response offset per due second
	sendTime    time.Duration   // traced: inside Send
	recvTime    time.Duration   // traced: inside Recv, reads included
	ok, failed  int64
	failures    []string
}

// reset prepares the generator for a phase.
func (d *connGen) reset(s schedule, start time.Time, base uint64, traced bool) {
	d.sched, d.start, d.base, d.traced = s, start, base, traced
	d.deadline = start.Add(s.due(s.n) + watchdog)
	d.total = (s.n - d.id + d.stride - 1) / d.stride
	d.sent, d.recvd = 0, 0
	d.lat, d.lag = new(hist), new(hist)
	d.latSum, d.lagSum, d.lagMax = 0, 0, 0
	d.winLast = make([]time.Duration, int(s.due(s.n)/time.Second)+1)
	d.sendTime, d.recvTime = 0, 0
	d.ok, d.failed, d.failures = 0, 0, nil
	d.pc.readTime = 0
	d.pc.d = d
}

// g returns the schedule index of this connection's k-th request.
func (d *connGen) g(k int) int { return d.id + k*d.stride }

// sendDue sends every request that has come due and flushes.
func (d *connGen) sendDue() error {
	n := 0
	if d.sent < d.total {
		off := time.Since(d.start)
		for d.sent < d.total {
			g := d.g(d.sent)
			due := d.sched.due(g)
			if due > off {
				break
			}
			lag := off - due
			d.lag.add(lag)
			d.lagSum += lag
			d.lagMax = max(d.lagMax, lag)
			idx := g % len(d.rows32)
			var t0 time.Time
			if d.traced {
				t0 = time.Now()
			}
			if err := d.cl.Send(d.base+uint64(g), uint64(idx), d.rows32[idx], false); err != nil {
				return err
			}
			if d.traced {
				d.sendTime += time.Since(t0)
			}
			d.sent++
			n++
		}
	}
	if n == 0 && !d.feedback {
		return nil
	}
	d.feedback = false
	return d.cl.Flush()
}

// nextWake returns when the goroutine must next be awake to send.
func (d *connGen) nextWake() time.Time {
	if d.sent < d.total {
		if t := d.start.Add(d.sched.due(d.g(d.sent))); t.Before(d.deadline) {
			return t
		}
	}
	return d.deadline
}

// run drives the phase to its last response, then fences.
func (d *connGen) run() error {
	for d.recvd < d.total {
		if err := d.sendDue(); err != nil {
			return err
		}
		if d.recvd == d.sent {
			// Nothing in flight: wait for the next due time.
			time.Sleep(time.Until(d.nextWake()))
			continue
		}
		var t0 time.Time
		if d.traced {
			t0 = time.Now()
		}
		resp, err := d.cl.Recv()
		if err != nil {
			return fmt.Errorf("connection %d: receiving response %d: %w", d.id, d.recvd, err)
		}
		now := time.Now()
		if d.traced {
			d.recvTime += now.Sub(t0)
		}
		g := d.g(d.recvd)
		if resp.ReqID != d.base+uint64(g) {
			return fmt.Errorf("connection %d: response for request %d, want %d", d.id, resp.ReqID-d.base, g)
		}
		due := d.sched.due(g)
		off := now.Sub(d.start)
		d.lat.add(off - due)
		d.latSum += off - due
		if w := int(due / time.Second); off > d.winLast[w] {
			d.winLast[w] = off
		}
		idx := g % len(d.rows32)
		switch {
		case resp.Err != 0:
			d.fail("request %d: wire error code %d", g, resp.Err)
		case int(resp.Action) != d.classes[idx]:
			d.fail("request %d: class %d, float64 forest says %d", g, resp.Action, d.classes[idx])
		default:
			d.ok++
			if err := d.cl.SendFeedback(d.base+uint64(g), uint64(idx), uint8(d.labels[idx])); err != nil {
				return err
			}
			d.feedback = true
		}
		d.recvd++
	}
	return d.fence()
}

// fence sends one more request after every feedback frame and waits for
// its answer: the server reads a connection's frames in order, so once
// the fence is answered every earlier frame has been handled.
func (d *connGen) fence() error {
	d.traced = false
	g := d.sched.n + d.id
	idx := g % len(d.rows32)
	if err := d.cl.Send(d.base+uint64(g), uint64(idx), d.rows32[idx], false); err != nil {
		return err
	}
	if err := d.cl.Flush(); err != nil {
		return err
	}
	d.feedback = false
	resp, err := d.cl.Recv()
	if err != nil {
		return fmt.Errorf("connection %d: fence: %w", d.id, err)
	}
	if resp.ReqID != d.base+uint64(g) || resp.Err != 0 || int(resp.Action) != d.classes[idx] {
		d.fail("fence request %d answered wrongly", g)
	}
	d.pc.d = nil
	return nil
}

func (d *connGen) fail(format string, args ...any) {
	d.failed++
	if len(d.failures) < 10 {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
}

// pacedConn is the client side of a connection. While its generator's
// goroutine blocks reading a response, Read wakes at each due time to
// send what has come due, so one goroutine both paces the schedule and
// receives. Sending from inside Read touches only the client's write
// buffer, never the read state the blocked Recv is using.
type pacedConn struct {
	net.Conn
	d        *connGen      // nil outside a phase
	readTime time.Duration // traced: inside Read
}

func (c *pacedConn) Read(p []byte) (int, error) {
	d := c.d
	if d == nil { // the handshake
		return c.Conn.Read(p)
	}
	var t0 time.Time
	if d.traced {
		t0 = time.Now()
		defer func() { c.readTime += time.Since(t0) }()
	}
	for {
		if err := d.sendDue(); err != nil {
			return 0, err
		}
		if err := c.Conn.SetReadDeadline(d.nextWake()); err != nil {
			return 0, err
		}
		n, err := c.Conn.Read(p)
		if n > 0 {
			return n, nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && time.Now().Before(d.deadline) {
			continue
		}
		return n, err
	}
}
