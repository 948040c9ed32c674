package sim

import (
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phy"
)

// LinkSim is the step-wise single-link simulator and the only timeline
// stepper: one Tx/Rx link advancing segment by segment under an adaptation
// policy. Run drives one to completion over a timeline scenario; the
// multi-AP discrete-event engine drives one per station, interleaving
// segments of many links in simulation-time order. With the default airtime
// share (1) and SNR offset (0) the adjustment hooks below are guarded no-ops,
// so a single-link run pays nothing for the engine's contention and
// interference model.
//
// A LinkSim is single-goroutine state; the engine guarantees each station is
// handled by at most one worker per event barrier.
type LinkSim struct {
	p   Params
	pol Policy
	clf core.Classifier
	cfg core.Config

	st       tlState
	res      TimelineResult
	elapsed  time.Duration
	segIndex int

	// share is the fraction of TDMA airtime granted to this link. The sole
	// occupant of an AP holds share 1, which skips the scaling entirely.
	share float64
	// offs is an SNR offset (dB) applied to the current segment's channel:
	// the engine models per-station impairments (blockage attenuation) and
	// inter-AP interference penalties as offsets over a frozen snapshot.
	// Zero skips the adjustment entirely.
	offs float64
}

// NewLinkSim creates a link simulator with full airtime and a clean channel.
// clf is consulted only by the LiBRA policy.
func NewLinkSim(p Params, pol Policy, clf core.Classifier) *LinkSim {
	return &LinkSim{p: p, pol: pol, clf: clf, cfg: p.Config(), share: 1}
}

// SetShare sets the TDMA airtime fraction granted to the link (0, 1].
// Delivered rates scale by the share; adaptation overheads do not — beam
// training and probe frames occupy dedicated airtime regardless of the data
// schedule.
func (ls *LinkSim) SetShare(f float64) { ls.share = f }

// SetSNROffsetDB sets the SNR offset (dB, usually negative) applied to every
// channel evaluation until changed. Measurements carry the offset too, so
// LiBRA's feature diffs observe it like a real channel change.
func (ls *LinkSim) SetSNROffsetDB(db float64) { ls.offs = db }

// MCS returns the link's current modulation and coding scheme.
func (ls *LinkSim) MCS() phy.MCS { return ls.st.mcs }

// Beams returns the current Tx/Rx beam pair.
func (ls *LinkSim) Beams() (txBeam, rxBeam int) { return ls.st.txBeam, ls.st.rxBeam }

// Result returns the accumulated multi-segment result.
func (ls *LinkSim) Result() TimelineResult { return ls.res }

// CurrentSNRdB evaluates the link's SNR on snap at the current beam pair,
// including the configured offset — the quantity the engine's handoff rule
// compares against alternative APs.
func (ls *LinkSim) CurrentSNRdB(snap *channel.Snapshot) float64 {
	snr := snap.SNRdB(ls.st.txBeam, ls.st.rxBeam)
	if ls.offs != 0 {
		snr += ls.offs
	}
	return snr
}

// ChargeOverhead consumes dur of simulated time at zero delivered rate —
// the engine charges AP handoffs (reassociation sweep plus signaling) this
// way before the next segment runs.
func (ls *LinkSim) ChargeOverhead(dur time.Duration) { ls.emit(dur, 0) }

// Rebootstrap retrains the link from scratch on snap: best beam pair, best
// MCS, fresh reference measurement. The engine calls it when a station hands
// off to a new AP, whose channel the old beam state says nothing about.
func (ls *LinkSim) Rebootstrap(snap *channel.Snapshot) { ls.bootstrap(snap) }

// bootstrap performs full training on snap (the first segment's state).
func (ls *LinkSim) bootstrap(snap *channel.Snapshot) {
	var snr float64
	ls.st.txBeam, ls.st.rxBeam, snr = snap.BestPair()
	if ls.offs != 0 {
		snr += ls.offs
	}
	ls.st.mcs, _ = phy.BestMCS(snr)
	ls.st.prevMeas = ls.measure(snap)
	ls.st.prevValid = true
}

// measure observes the current beam pair on snap with the offset applied to
// the power readings (RSS and SNR shift together; noise is unaffected).
func (ls *LinkSim) measure(snap *channel.Snapshot) channel.Measurement {
	m := snap.Measure(ls.st.txBeam, ls.st.rxBeam)
	if ls.offs != 0 {
		m.RSSdBm += ls.offs
		m.SNRdB += ls.offs
	}
	return m
}

// emit accounts one constant-rate stretch: the rate profile, delivered
// bytes, and elapsed time all advance together.
func (ls *LinkSim) emit(dur time.Duration, bps float64) {
	if dur <= 0 {
		return
	}
	if ls.share != 1 {
		bps *= ls.share
	}
	ls.res.Rate = append(ls.res.Rate, RateInterval{Dur: dur, Bps: bps})
	ls.res.Bytes += bps * dur.Seconds() / 8
	ls.elapsed += dur
}

// Segment advances the link through one channel segment: a break check at
// the boundary (with policy-driven adaptation when the current MCS died),
// then steady-state probing toward the best working MCS. It reports whether
// the segment opened with a link break. The first call bootstraps instead —
// full training on the initial state, as the paper's timelines do.
func (ls *LinkSim) Segment(snap *channel.Snapshot, dur time.Duration) bool {
	si := ls.segIndex
	ls.segIndex++
	if si == 0 {
		ls.bootstrap(snap)
	}

	remaining := dur
	cur := tableAt(snap, ls.st.txBeam, ls.st.rxBeam, ls.offs)
	tr := ls.p.Trace
	broke := false

	if si > 0 && !working(cur[ls.st.mcs]) {
		// Link break at the segment boundary.
		broke = true
		ls.res.Breaks++
		obsTimelineBreaks.Inc()
		if tr.Enabled() {
			tr.Event(simTime(ls.elapsed), "break",
				obs.Fint("segment", int64(si)), obs.Fint("mcs", int64(ls.st.mcs)))
		}
		action := decideTimeline(ls.pol, ls.clf, ls.cfg, snap, &ls.st, &cur, ls.p, ls.offs)
		if tr.Enabled() && int(action) < len(actionNames) {
			tr.Event(simTime(ls.elapsed), "verdict",
				obs.F("action", actionNames[action]))
		}
		rec, executed := applyAdaptation(action, snap, &ls.st, &cur, ls.p, ls.emit, &remaining, ls.offs)
		ls.res.TotalRecoveryDelay += rec
		ls.res.Actions = append(ls.res.Actions, executed)
		if tr.Enabled() && int(executed) < len(actionNames) {
			kind := "ra_search"
			if executed == dataset.ActBA {
				kind = "rebeam"
			}
			tr.Event(simTime(ls.elapsed), kind,
				obs.Ffloat("recovery_s", rec.Seconds()), obs.Fint("mcs", int64(ls.st.mcs)))
		}
	}

	// Steady state within the segment: periodic probing walks the MCS
	// toward the best working MCS on the current pair.
	target, targetTh := bestWorking(&cur)
	stepTime := time.Duration(ls.cfg.ProbeInterval) * ls.p.FAT
	for ls.st.mcs != target && remaining > 0 {
		d := stepTime
		if d > remaining {
			d = remaining
		}
		ls.emit(d, cur[ls.st.mcs])
		remaining -= d
		if ls.st.mcs < target {
			ls.st.mcs++
		} else {
			ls.st.mcs--
		}
	}
	if remaining > 0 {
		ls.emit(remaining, targetTh)
		ls.st.mcs = target
	}
	ls.st.prevMeas = ls.measure(snap)
	ls.st.prevValid = true
	return broke
}
