// Package sim is the trace-driven evaluation engine of §8: it replays link
// impairments (dataset entries or multi-segment timelines) under the four
// policies the paper compares — LiBRA, "BA First" (the proposal of the
// Qualcomm patent), "RA First" (what COTS devices do), and the two oracles
// Oracle-Data and Oracle-Delay — charging each policy the BA and RA
// overheads of the evaluated protocol parameterization.
package sim

import (
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phy"
)

// Params is one cell of the evaluation grid (§8.1).
type Params struct {
	// BAOverhead is the beam-training airtime: 0.5 ms and 5 ms model
	// 802.11ad-style O(N) training with 30° and 3° beams; 150 ms and
	// 250 ms model O(N^2) directional training with 9°/7° beams.
	BAOverhead time.Duration
	// FAT is the frame aggregation time per RA probe (2 ms in 802.11ad,
	// 10 ms in 802.11ac/X60).
	FAT time.Duration
	// FlowDur is the data flow duration (0.4 s and 1 s in §8.2).
	FlowDur time.Duration
	// Trace, when non-nil, receives the simulation-time adaptation events
	// of this run (break, classifier verdict, re-beam, RA search, MCS
	// moves), stamped with elapsed simulated time only — never wall time —
	// so the trace bytes are identical for any worker count.
	Trace *obs.Stream
}

// Grid enumerates the BA overhead and FAT combinations of Figs 10-13.
var (
	BAOverheads = []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, 150 * time.Millisecond, 250 * time.Millisecond}
	FATs        = []time.Duration{2 * time.Millisecond, 10 * time.Millisecond}
	FlowDurs    = []time.Duration{400 * time.Millisecond, time.Second}
)

// Config converts Params to a core.Config with the paper's α pairing.
func (p Params) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.BAOverhead = p.BAOverhead
	cfg.FAT = p.FAT
	cfg.Alpha = core.AlphaFor(p.BAOverhead)
	return cfg
}

// Policy identifies an adaptation policy.
type Policy int

// The compared policies (§8.1).
const (
	LiBRA Policy = iota
	BAFirst
	RAFirst
	OracleData
	OracleDelay
)

// String returns the policy name as the paper prints it.
func (p Policy) String() string {
	switch p {
	case LiBRA:
		return "LiBRA"
	case BAFirst:
		return "BA First"
	case RAFirst:
		return "RA First"
	case OracleData:
		return "Oracle-Data"
	case OracleDelay:
		return "Oracle-Delay"
	}
	return "unknown"
}

// Policies lists the three non-oracle policies in display order.
var Policies = []Policy{BAFirst, RAFirst, LiBRA}

// Outcome is the result of one policy run over one link break.
type Outcome struct {
	// Bytes delivered within the flow duration.
	Bytes float64
	// RecoveryDelay is the time from the break until the first working
	// MCS, capped at Dmax when the link never recovers.
	RecoveryDelay time.Duration
	// FinalMCS and FinalOnBestBeam describe where the policy settled.
	FinalMCS        phy.MCS
	FinalOnBestBeam bool
	// UsedBA and UsedRA report which mechanisms ran.
	UsedBA, UsedRA bool
}

// thTable is a per-MCS expected throughput table (bps).
type thTable = [phy.NumMCS]float64

// working applies the §5.2 working-MCS predicate to a table entry. The CDR
// condition is implied: any MCS whose expected throughput clears 150 Mbps
// has CDR far above 10% at these rates.
func working(th float64) bool { return th > phy.WorkingMinThroughputBps }

// raOutcome describes a downward rate search over a throughput table.
type raOutcome struct {
	found        bool
	mcs          phy.MCS
	th           float64
	probes       int
	searchBytes  float64
	firstWorking int // probes until the first working MCS (recovery point)
}

// raSearch simulates the paper's frame-based RA (§7): probe downward from
// start, one aggregated frame per MCS; settle on the highest-throughput
// working MCS (stopping once throughput starts decreasing past a working
// MCS). Probe frames are data frames, so they deliver bytes.
func raSearch(table *thTable, start phy.MCS, fat time.Duration) raOutcome {
	if start > phy.MaxMCS {
		start = phy.MaxMCS
	}
	if start < phy.MinMCS {
		start = phy.MinMCS
	}
	out := raOutcome{mcs: phy.MinMCS}
	fatSec := fat.Seconds()
	bestTh := 0.0
	bestMCS := phy.MCS(-1)
	for m := start; m >= phy.MinMCS; m-- {
		out.probes++
		th := table[m]
		out.searchBytes += th * fatSec / 8
		if working(th) {
			if !out.found {
				out.found = true
				out.firstWorking = out.probes
			}
			if th > bestTh {
				bestTh, bestMCS = th, m
			}
		}
		if bestMCS >= 0 && th < bestTh {
			break
		}
	}
	if out.found {
		out.mcs, out.th = bestMCS, bestTh
	}
	return out
}

// runPlan executes one adaptation plan (RA first or BA first) over an
// entry's throughput tables and accounts bytes within the flow duration.
func runPlan(e *dataset.Entry, p Params, baFirst bool) Outcome {
	var (
		elapsed time.Duration
		bytes   float64
		out     Outcome
	)
	flow := p.FlowDur
	dmax := core.Dmax(p.Config())
	addBytes := func(b float64, d time.Duration) {
		// Bytes only count within the flow window.
		remaining := flow - elapsed
		if remaining <= 0 {
			return
		}
		if d <= remaining {
			bytes += b
		} else if d > 0 {
			bytes += b * float64(remaining) / float64(d)
		}
		elapsed += d
	}

	recovered := false
	recoverAt := func() {
		if !recovered {
			out.RecoveryDelay = elapsed
			recovered = true
		}
	}
	tr := p.Trace
	traceRA := func(ra *raOutcome) {
		if tr.Enabled() {
			found := "false"
			if ra.found {
				found = "true"
			}
			tr.Event(simTime(elapsed), "ra_search",
				obs.F("found", found), obs.Fint("probes", int64(ra.probes)))
		}
	}

	if baFirst {
		out.UsedBA = true
		if tr.Enabled() {
			tr.Event(simTime(elapsed), "rebeam",
				obs.Ffloat("overhead_s", p.BAOverhead.Seconds()))
		}
		addBytes(0, p.BAOverhead) // control frames only: zero throughput
		ra := raSearch(&e.BestBeamTh, e.InitMCS, p.FAT)
		out.UsedRA = true
		traceRA(&ra)
		if ra.found {
			preRecovery := time.Duration(ra.firstWorking) * p.FAT
			addBytes(partialSearchBytes(&e.BestBeamTh, e.InitMCS, ra.firstWorking, p.FAT), preRecovery)
			recoverAt()
			rest := time.Duration(ra.probes-ra.firstWorking) * p.FAT
			addBytes(ra.searchBytes-partialSearchBytes(&e.BestBeamTh, e.InitMCS, ra.firstWorking, p.FAT), rest)
			out.FinalMCS, out.FinalOnBestBeam = ra.mcs, true
			settle(&bytes, &elapsed, flow, e.BestBeamTh[ra.mcs])
		} else {
			addBytes(ra.searchBytes, time.Duration(ra.probes)*p.FAT)
			out.RecoveryDelay = dmax
			recovered = true
		}
	} else {
		out.UsedRA = true
		ra := raSearch(&e.InitBeamTh, e.InitMCS, p.FAT)
		traceRA(&ra)
		if ra.found {
			preRecovery := time.Duration(ra.firstWorking) * p.FAT
			addBytes(partialSearchBytes(&e.InitBeamTh, e.InitMCS, ra.firstWorking, p.FAT), preRecovery)
			recoverAt()
			rest := time.Duration(ra.probes-ra.firstWorking) * p.FAT
			addBytes(ra.searchBytes-partialSearchBytes(&e.InitBeamTh, e.InitMCS, ra.firstWorking, p.FAT), rest)
			out.FinalMCS, out.FinalOnBestBeam = ra.mcs, false
			settle(&bytes, &elapsed, flow, e.InitBeamTh[ra.mcs])
		} else {
			// RA alone failed: BA, then another RA round (§5.2).
			addBytes(ra.searchBytes, time.Duration(ra.probes)*p.FAT)
			out.UsedBA = true
			if tr.Enabled() {
				tr.Event(simTime(elapsed), "rebeam",
					obs.Ffloat("overhead_s", p.BAOverhead.Seconds()))
			}
			addBytes(0, p.BAOverhead)
			ra2 := raSearch(&e.BestBeamTh, e.InitMCS, p.FAT)
			traceRA(&ra2)
			if ra2.found {
				preRecovery := time.Duration(ra2.firstWorking) * p.FAT
				addBytes(partialSearchBytes(&e.BestBeamTh, e.InitMCS, ra2.firstWorking, p.FAT), preRecovery)
				recoverAt()
				rest := time.Duration(ra2.probes-ra2.firstWorking) * p.FAT
				addBytes(ra2.searchBytes-partialSearchBytes(&e.BestBeamTh, e.InitMCS, ra2.firstWorking, p.FAT), rest)
				out.FinalMCS, out.FinalOnBestBeam = ra2.mcs, true
				settle(&bytes, &elapsed, flow, e.BestBeamTh[ra2.mcs])
			} else {
				addBytes(ra2.searchBytes, time.Duration(ra2.probes)*p.FAT)
				out.RecoveryDelay = dmax
				recovered = true
			}
		}
	}
	if !recovered {
		out.RecoveryDelay = dmax
	}
	if out.RecoveryDelay >= dmax {
		obsRecoveryFailures.Inc()
	}
	if tr.Enabled() {
		t := simTime(out.RecoveryDelay)
		switch {
		case out.RecoveryDelay >= dmax:
			tr.Event(t, "recovery_failed", obs.Fint("mcs", int64(out.FinalMCS)))
		case out.FinalMCS < e.InitMCS:
			tr.Event(t, "mcs_down",
				obs.Fint("from", int64(e.InitMCS)), obs.Fint("to", int64(out.FinalMCS)))
		case out.FinalMCS > e.InitMCS:
			tr.Event(t, "mcs_up",
				obs.Fint("from", int64(e.InitMCS)), obs.Fint("to", int64(out.FinalMCS)))
		default:
			tr.Event(t, "recovered", obs.Fint("mcs", int64(out.FinalMCS)))
		}
	}
	out.Bytes = bytes
	return out
}

// partialSearchBytes returns the bytes delivered by the first n probes of a
// downward search starting at start.
func partialSearchBytes(table *thTable, start phy.MCS, n int, fat time.Duration) float64 {
	fatSec := fat.Seconds()
	var b float64
	for i := 0; i < n; i++ {
		m := start - phy.MCS(i)
		if m < phy.MinMCS {
			break
		}
		b += table[m] * fatSec / 8
	}
	return b
}

// settle accounts the steady-state bytes after adaptation completes.
func settle(bytes *float64, elapsed *time.Duration, flow time.Duration, thBps float64) {
	remaining := flow - *elapsed
	if remaining > 0 {
		*bytes += thBps * remaining.Seconds() / 8
	}
	*elapsed = flow
}

// naPenalty is the extra observation window LiBRA loses when the classifier
// wrongly reports NA on a broken link: metrics persist and the next window
// (2 frames, §7) triggers the missing-ACK rule.
func naPenalty(p Params) time.Duration { return 2 * p.FAT }

// runEntry is the single-break core behind Run.
func runEntry(e *dataset.Entry, p Params, pol Policy, clf core.Classifier) Outcome {
	if c, ok := obsPolicyRuns[pol]; ok {
		c.Inc()
	}
	tr := p.Trace
	if tr.Enabled() {
		tr.Event(obs.SimTime{}, "break", obs.Fint("init_mcs", int64(e.InitMCS)))
	}
	switch pol {
	case BAFirst:
		return runPlan(e, p, true)
	case RAFirst:
		return runPlan(e, p, false)
	case OracleData, OracleDelay:
		// The oracle explores both plans; the exploratory runs carry no
		// trace (the chosen branch would otherwise appear twice).
		pq := p
		pq.Trace = nil
		ba := runPlan(e, pq, true)
		ra := runPlan(e, pq, false)
		pickRA := ra.Bytes >= ba.Bytes
		if pol == OracleDelay {
			pickRA = ra.RecoveryDelay <= ba.RecoveryDelay
		}
		if tr.Enabled() {
			plan := "ba"
			if pickRA {
				plan = "ra"
			}
			tr.Event(obs.SimTime{}, "oracle_pick", obs.F("plan", plan))
		}
		if pickRA {
			return ra
		}
		return ba
	default: // LiBRA
		cfg := p.Config()
		var action dataset.Action
		if e.Features[5] == 0 && !working(e.InitBeamTh[e.InitMCS]) {
			// No codewords got through: the ACK is missing and the
			// classifier has no metrics (§7 rule).
			action = core.MissingACKAction(e.InitMCS, cfg)
		} else {
			action = clf.Classify(e.FeatureSlice())
		}
		if tr.Enabled() && int(action) < len(actionNames) {
			tr.Event(obs.SimTime{}, "verdict", obs.F("action", actionNames[action]))
		}
		switch action {
		case dataset.ActBA:
			return runPlan(e, p, true)
		case dataset.ActRA:
			return runPlan(e, p, false)
		default:
			// NA on a broken link: lose one observation window at the
			// degraded rate, then apply the missing-ACK rule.
			wait := naPenalty(p)
			out := runPlan(e, p, core.MissingACKAction(e.InitMCS, cfg) == dataset.ActBA)
			out.RecoveryDelay += wait
			stuckBytes := e.InitBeamTh[e.InitMCS] * wait.Seconds() / 8
			total := p.FlowDur.Seconds()
			if total > 0 {
				// The wait consumes flow time at the degraded rate.
				out.Bytes = stuckBytes + out.Bytes*(total-wait.Seconds())/total
			}
			return out
		}
	}
}
