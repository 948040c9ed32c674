package sim

import (
	"context"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/trace"
)

// RateInterval is a stretch of time at a constant delivery rate; a timeline
// run produces a sequence of them (consumed by the VR player of §8.4).
type RateInterval struct {
	Dur time.Duration
	Bps float64
}

// TimelineResult summarizes one policy run over one timeline.
type TimelineResult struct {
	// Bytes delivered over the whole timeline.
	Bytes float64
	// Breaks is the number of link breaks encountered.
	Breaks int
	// TotalRecoveryDelay sums per-break recovery delays. The paper's
	// Fig. 13 metric is TotalRecoveryDelay / Breaks.
	TotalRecoveryDelay time.Duration
	// Rate is the delivered-rate profile over time.
	Rate []RateInterval
	// Actions records the mechanism executed at each break (BA or RA),
	// in order — the input to the §7 future-work pattern predictor.
	Actions []dataset.Action
}

// MeanRecoveryDelay returns the average per-break recovery delay.
func (r *TimelineResult) MeanRecoveryDelay() time.Duration {
	if r.Breaks == 0 {
		return 0
	}
	return r.TotalRecoveryDelay / time.Duration(r.Breaks)
}

// tlState is the mutable link configuration a policy carries across
// segments.
type tlState struct {
	txBeam, rxBeam int
	mcs            phy.MCS
	prevMeas       channel.Measurement
	prevValid      bool
}

// tableAt builds the per-MCS expected-throughput table for a beam pair on a
// snapshot, shifting the SNR by offsDB when non-zero (the engine's channel
// for impairment and interference penalties; 0 is an exact no-op).
func tableAt(snap *channel.Snapshot, txBeam, rxBeam int, offsDB float64) thTable {
	snr := snap.SNRdB(txBeam, rxBeam)
	if offsDB != 0 {
		snr += offsDB
	}
	var t thTable
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		t[m] = phy.ExpectedThroughput(m, snr)
	}
	return t
}

// runTimeline drives a LinkSim over the timeline's segments, checking ctx at
// each segment boundary: a canceled ctx abandons the remaining segments and
// returns ctx's error with a zero result.
func runTimeline(ctx context.Context, tl *trace.Timeline, p Params, pol Policy, clf core.Classifier) (TimelineResult, error) {
	if len(tl.Segments) == 0 {
		return TimelineResult{}, nil
	}
	ls := NewLinkSim(p, pol, clf)
	for _, seg := range tl.Segments {
		if err := ctx.Err(); err != nil {
			return TimelineResult{}, err
		}
		ls.Segment(seg.Snap, seg.Dur)
	}
	return ls.Result(), nil
}

// bestWorking returns the highest-throughput MCS of a table (falling back to
// MinMCS when nothing works).
func bestWorking(t *thTable) (phy.MCS, float64) {
	best, bestTh := phy.MinMCS, 0.0
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		if t[m] > bestTh {
			best, bestTh = m, t[m]
		}
	}
	return best, bestTh
}

// decideTimeline picks the adaptation action at a break. offsDB shifts every
// SNR evaluation (0 for plain timeline runs).
func decideTimeline(pol Policy, clf core.Classifier, cfg core.Config, snap *channel.Snapshot, st *tlState, cur *thTable, p Params, offsDB float64) dataset.Action {
	switch pol {
	case BAFirst:
		return dataset.ActBA
	case RAFirst:
		return dataset.ActRA
	case OracleData, OracleDelay:
		// Greedy per-break optimum (§8.1: the oracles make optimal
		// decisions only with respect to restoring a link).
		ra := planOutcome(false, snap, st, cur, p, offsDB)
		ba := planOutcome(true, snap, st, cur, p, offsDB)
		if pol == OracleData {
			if ra.Bytes >= ba.Bytes {
				return dataset.ActRA
			}
			return dataset.ActBA
		}
		if ra.RecoveryDelay <= ba.RecoveryDelay {
			return dataset.ActRA
		}
		return dataset.ActBA
	default: // LiBRA
		snr := snap.SNRdB(st.txBeam, st.rxBeam)
		if offsDB != 0 {
			snr += offsDB
		}
		cdr := phy.CDR(st.mcs, snr)
		if cdr < 0.01 || !st.prevValid {
			return core.MissingACKAction(st.mcs, cfg)
		}
		meas := snap.Measure(st.txBeam, st.rxBeam)
		if offsDB != 0 {
			meas.RSSdBm += offsDB
			meas.SNRdB += offsDB
		}
		f := dataset.FeaturizeObserved(st.prevMeas, meas, cdr, st.mcs)
		action := clf.Classify(f[:])
		if action == dataset.ActNA {
			// Misprediction on a broken link: the §7 fallback applies
			// after one lost observation window (charged by caller via
			// applyAdaptation's NA handling).
			return dataset.ActNA
		}
		return action
	}
}

// planOutcome evaluates one branch (BA-first or RA-first) analytically for
// the oracles, using a synthetic entry built from the snapshot tables.
func planOutcome(baFirst bool, snap *channel.Snapshot, st *tlState, cur *thTable, p Params, offsDB float64) Outcome {
	e := &dataset.Entry{InitMCS: st.mcs}
	e.InitBeamTh = *cur
	tb, rb, _ := snap.BestPair()
	e.BestBeamTh = tableAt(snap, tb, rb, offsDB)
	return runPlan(e, paramsForSegment(p), baFirst)
}

// paramsForSegment reuses the entry machinery with a nominal flow window
// long enough to capture the adaptation transient. The oracle's exploratory
// plan evaluations never trace (only the executed branch is an event).
func paramsForSegment(p Params) Params {
	p.FlowDur = 3 * time.Second
	p.Trace = nil
	return p
}

// applyAdaptation executes the chosen action on the timeline state, emitting
// rate intervals for the overheads and probe frames. It returns the recovery
// delay and the mechanism actually executed (an NA misprediction resolves to
// the missing-ACK fallback; a failed RA resolves to BA). offsDB shifts the
// rebuilt throughput tables like every other channel evaluation.
func applyAdaptation(action dataset.Action, snap *channel.Snapshot, st *tlState, cur *thTable, p Params, emit func(time.Duration, float64), remaining *time.Duration, offsDB float64) (time.Duration, dataset.Action) {
	var delay time.Duration
	cfg := p.Config()
	spend := func(d time.Duration, bps float64) {
		if d > *remaining {
			d = *remaining
		}
		emit(d, bps)
		*remaining -= d
	}

	if action == dataset.ActNA {
		// One lost observation window at the broken rate, then fall back.
		wait := 2 * p.FAT
		spend(wait, (*cur)[st.mcs])
		delay += wait
		action = core.MissingACKAction(st.mcs, cfg)
	}

	doRA := func(t *thTable) raOutcome {
		ra := raSearch(t, st.mcs, p.FAT)
		for i := 0; i < ra.probes; i++ {
			m := st.mcs - phy.MCS(i)
			if m < phy.MinMCS {
				break
			}
			spend(p.FAT, (*t)[m])
		}
		return ra
	}

	executed := action
	switch action {
	case dataset.ActBA:
		spend(cfg.BAOverhead, 0)
		delay += cfg.BAOverhead
		tb, rb, _ := snap.BestPair()
		st.txBeam, st.rxBeam = tb, rb
		best := tableAt(snap, tb, rb, offsDB)
		*cur = best
		ra := doRA(&best)
		if ra.found {
			delay += time.Duration(ra.firstWorking) * p.FAT
			st.mcs = ra.mcs
		} else {
			delay = core.Dmax(cfg)
			st.mcs = phy.MinMCS
		}
	default: // RA first
		executed = dataset.ActRA
		ra := doRA(cur)
		if ra.found {
			delay += time.Duration(ra.firstWorking) * p.FAT
			st.mcs = ra.mcs
		} else {
			executed = dataset.ActBA // RA alone could not restore the link
			delay += time.Duration(ra.probes) * p.FAT
			spend(cfg.BAOverhead, 0)
			delay += cfg.BAOverhead
			tb, rb, _ := snap.BestPair()
			st.txBeam, st.rxBeam = tb, rb
			best := tableAt(snap, tb, rb, offsDB)
			*cur = best
			ra2 := doRA(&best)
			if ra2.found {
				delay += time.Duration(ra2.firstWorking) * p.FAT
				st.mcs = ra2.mcs
			} else {
				delay = core.Dmax(cfg)
				st.mcs = phy.MinMCS
			}
		}
	}
	return delay, executed
}
