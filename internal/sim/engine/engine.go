package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/libra-wlan/libra/internal/adapt"
	"github.com/libra-wlan/libra/internal/mac"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/sim"
)

// Engine runs a built Scenario. The loop alternates a serial phase (pop one
// time barrier from the heap, later: apply effects, draw randomness, push
// follow-up events) with a parallel phase (station handlers, partitioned so
// each station's events stay on one worker). Handlers mutate only their own
// station's state and read only pre-barrier shared state; everything that
// writes shared state — AP membership, slot schedules, the digest — happens
// serially in (entity, sequence) order. That split is the whole determinism
// argument: the merged trace and digest depend on the event order, which the
// heap fixes independently of worker count.
type Engine struct {
	sc      *Scenario
	workers int
}

// New returns an engine over sc using the given worker count (<=0 picks
// GOMAXPROCS). The worker count never changes results, only wall time.
func New(sc *Scenario, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{sc: sc, workers: workers}
}

// stationState is one station's runtime: mutated only by its own handler
// (parallel phase) or the serial effect phase.
type stationState struct {
	ls       *sim.LinkSim
	stream   *obs.Stream
	ap       int
	impairDB float64
	// intfDB is the interference offset applied to the last segment — a
	// verdict event fires when it changes.
	intfDB float64
	// deficit counts consecutive boundaries below the handoff bar.
	deficit  int
	handoffs int
	// debt is overhead airtime (handoff) charged at the start of the next
	// segment, so simulated time never outruns the event clock.
	debt time.Duration
	rng  *splitMix64
}

// apState is one AP's runtime: only the serial phases touch it.
type apState struct {
	members int
	sched   mac.SlotSchedule
	stream  *obs.Stream
}

// segOut is what a station handler hands back to the serial merge: digest
// lines (appended to the run hash in entity order), follow-up events to push,
// and requested effects.
type segOut struct {
	digest []byte
	pushes []event
	// handoffTo >= 0 asks the serial phase to re-home the station.
	handoffTo int
	// drawImpair asks the serial phase to draw the next impairment cycle.
	drawImpair bool
	verdicts   int
}

// Run executes the scenario to completion. ctx is checked between barriers;
// a completed run is a pure function of the scenario.
func (en *Engine) Run(ctx context.Context) (*Result, error) {
	sc := en.sc
	spec := sc.spec
	S, A := spec.Stations, spec.APs

	obsEngineRuns.Inc()
	tracer := obs.ActiveTracer()
	h := sha256.New()

	// Serial init: streams, link sims, membership, schedules, first events.
	stations := make([]*stationState, S)
	aps := make([]*apState, A)
	for a := 0; a < A; a++ {
		aps[a] = &apState{stream: tracer.Stream("engine/ap", uint64(a))}
	}
	eh := &eventHeap{}
	for s := 0; s < S; s++ {
		st := &stationState{
			stream: tracer.Stream("engine/station", uint64(s)),
			ap:     sc.initialAP[s],
			rng:    newStream(spec.Seed, s),
		}
		p := spec.Params
		p.Trace = st.stream
		st.ls = sim.NewLinkSim(p, spec.Policy, spec.Classifier)
		stations[s] = st
		aps[st.ap].members++
		fmt.Fprintf(h, "init s=%d ap=%d\n", s, st.ap)
		eh.push(event{at: 0, entity: s, kind: evSegment})
		if spec.ImpairMeanGap > 0 {
			pushImpairCycle(eh, st, s, 0, spec)
		}
	}
	for a := 0; a < A; a++ {
		en.regrant(h, aps, a)
	}

	// Event loop: one barrier per iteration.
	duration := spec.Duration
	groups := make([][]event, 0, S)
	events := 0
	for eh.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := eh.popBarrier()
		events += len(batch)

		// Group the barrier's events by station; batch is already in
		// (entity, seq) order.
		groups = groups[:0]
		for i := 0; i < len(batch); {
			j := i
			for j < len(batch) && batch[j].entity == batch[i].entity {
				j++
			}
			groups = append(groups, batch[i:j])
			i = j
		}

		outs := make([]segOut, len(groups))
		if en.workers > 1 && len(groups) > 1 {
			var wg sync.WaitGroup
			next := make(chan int, len(groups))
			for g := range groups {
				next <- g
			}
			close(next)
			w := en.workers
			if w > len(groups) {
				w = len(groups)
			}
			wg.Add(w)
			for i := 0; i < w; i++ {
				go func() {
					defer wg.Done()
					for g := range next {
						outs[g] = en.handleGroup(stations, aps, groups[g], duration)
					}
				}()
			}
			wg.Wait()
		} else {
			for g := range groups {
				outs[g] = en.handleGroup(stations, aps, groups[g], duration)
			}
		}

		// Serial merge in entity order: digest, effects, pushes, draws.
		for g, out := range outs {
			s := groups[g][0].entity
			st := stations[s]
			at := groups[g][0].at
			h.Write(out.digest)
			obsVerdicts.Add(uint64(out.verdicts))
			if out.handoffTo >= 0 {
				en.handoff(h, stations, aps, s, out.handoffTo, at)
			}
			for _, e := range out.pushes {
				eh.push(e)
			}
			if out.drawImpair {
				pushImpairCycle(eh, st, s, at, spec)
			}
		}
	}
	obsEngineEvents.Add(uint64(events))

	// Final accounting lines pin the aggregate results into the digest.
	res := &Result{Spec: spec, Stations: make([]StationResult, S), APMembers: make([]int, A), Events: events}
	for s, st := range stations {
		tl := st.ls.Result()
		tx, rx := st.ls.Beams()
		onBest := tx == sc.bestTx[s][st.ap] && rx == sc.bestRx[s][st.ap]
		res.Stations[s] = StationResult{
			Station: s, AP: st.ap, Handoffs: st.handoffs,
			FinalMCS: st.ls.MCS(), FinalOnBestBeam: onBest, Timeline: tl,
		}
		res.Handoffs += st.handoffs
		fmt.Fprintf(h, "fin s=%d ap=%d bytes=%s breaks=%d handoffs=%d mcs=%d\n",
			s, st.ap, fm(tl.Bytes), tl.Breaks, st.handoffs, st.ls.MCS())
	}
	for a, ap := range aps {
		res.APMembers[a] = ap.members
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// handleGroup runs every event of one station within a barrier, in order.
// It must not touch shared mutable state: schedules and memberships are read
// as of the previous barrier, effects are returned for the serial phase.
func (en *Engine) handleGroup(stations []*stationState, aps []*apState, group []event, duration time.Duration) segOut {
	out := segOut{handoffTo: -1}
	for _, e := range group {
		switch e.kind {
		case evSegment:
			en.handleSegment(stations, aps, e, duration, &out)
		case evImpairStart:
			st := stations[e.entity]
			st.impairDB = e.penaltyDB
			obsImpairments.Inc()
			st.stream.Event(simTime(e.at), "impair_start",
				obs.Ffloat("penalty_db", e.penaltyDB),
				obs.Fint("dur_us", e.impairDur.Microseconds()))
			out.digest = appendLine(out.digest, "impair", e.at, e.entity,
				"db="+fm(e.penaltyDB))
			end := e.at + e.impairDur
			if end < duration {
				out.pushes = append(out.pushes, event{at: end, entity: e.entity, kind: evImpairEnd})
			}
		case evImpairEnd:
			st := stations[e.entity]
			st.impairDB = 0
			st.stream.Event(simTime(e.at), "impair_end")
			out.digest = appendLine(out.digest, "clear", e.at, e.entity, "")
			out.drawImpair = true
		}
	}
	return out
}

// handleSegment advances one station's LinkSim across one boundary interval:
// contention share and interference offset from the pre-barrier schedules,
// pending handoff debt, the segment itself, then the handoff rule.
func (en *Engine) handleSegment(stations []*stationState, aps []*apState, e event, duration time.Duration, out *segOut) {
	sc := en.sc
	spec := sc.spec
	s := e.entity
	st := stations[s]
	a := st.ap
	sched := aps[a].sched
	st.ls.SetShare(sched.Share())

	// Interference: each co-channel AP whose active window overlaps ours
	// costs its precomputed worst-case penalty, scaled by the overlap.
	intf := en.interferenceDB(aps, s, a)
	if intf != st.intfDB {
		out.verdicts++
		st.stream.Event(simTime(e.at), "interference",
			obs.Fint("ap", int64(a)), obs.Ffloat("penalty_db", intf))
		out.digest = appendLine(out.digest, "intf", e.at, s, "db="+fm(intf))
		st.intfDB = intf
	}
	st.ls.SetSNROffsetDB(-(st.impairDB + intf))

	dur := spec.Interval
	if e.at+dur > duration {
		dur = duration - e.at
	}
	// Pay handoff debt first so LinkSim time tracks the event clock.
	if st.debt > 0 {
		pay := st.debt
		if pay > dur {
			pay = dur
		}
		st.ls.ChargeOverhead(pay)
		st.debt -= pay
		dur -= pay
	}
	snap := sc.snaps[s][a]
	if dur > 0 {
		st.ls.Segment(snap, dur)
	}
	out.digest = appendLine(out.digest, "seg", e.at, s,
		"mcs="+strconv.Itoa(int(st.ls.MCS()))+" bytes="+fm(st.ls.Result().Bytes))

	// Handoff rule: sustained SNR deficit against the best alternative AP,
	// compared like for like — the alternative is discounted by the
	// interference it would suffer under the current slot schedules, so a
	// station does not ping-pong toward an AP that looks clean only
	// because its own penalties were ignored.
	if spec.HysteresisDB > 0 && len(aps) > 1 {
		cur := st.ls.CurrentSNRdB(snap)
		alt, altSNR := -1, 0.0
		for b := range aps {
			if b == a {
				continue
			}
			eff := sc.bestSNR[s][b] - en.interferenceDB(aps, s, b)
			if alt < 0 || eff > altSNR {
				alt, altSNR = b, eff
			}
		}
		if altSNR-cur > spec.HysteresisDB {
			st.deficit++
		} else {
			st.deficit = 0
		}
		if st.deficit >= spec.DeficitBoundaries {
			out.handoffTo = alt
		}
	}
	if next := e.at + spec.Interval; next < duration {
		out.pushes = append(out.pushes, event{at: next, entity: s, kind: evSegment})
	}
}

// interferenceDB sums the SNR penalty station s would suffer when served by
// AP a under the current (pre-barrier) slot schedules: each co-channel AP's
// precomputed worst-case penalty scaled by how much of a's active window it
// overlaps. Iteration is in AP order, so the float sum is deterministic.
func (en *Engine) interferenceDB(aps []*apState, s, a int) float64 {
	sched := aps[a].sched
	if !sched.Active() {
		sched = mac.EqualShare(en.sc.slotOffset[a], 1, en.sc.spec.DemandSlots)
	}
	intf := 0.0
	for b := range aps {
		if b == a || !aps[b].sched.Active() {
			continue
		}
		if ov := sched.Overlap(aps[b].sched); ov > 0 {
			intf += en.sc.penaltyDB[s][a][b] * ov
		}
	}
	return intf
}

// handoff re-homes a station (serial phase): membership, schedules, overhead
// debt, full retraining on the new AP's channel. The impairment is cleared —
// it modeled a blockage on the old AP's path.
func (en *Engine) handoff(h hash.Hash, stations []*stationState, aps []*apState, s, to int, at time.Duration) {
	st := stations[s]
	from := st.ap
	if from == to {
		return
	}
	aps[from].members--
	aps[to].members++
	st.ap = to
	st.deficit = 0
	st.impairDB = 0
	st.intfDB = 0
	st.handoffs++
	st.debt += adapt.HandoffOverhead(en.sc.spec.Params.BAOverhead)
	st.ls.Rebootstrap(en.sc.snaps[s][to])
	obsHandoffs.Inc()
	st.stream.Event(simTime(at), "handoff",
		obs.Fint("from", int64(from)), obs.Fint("to", int64(to)))
	fmt.Fprintf(h, "handoff t=%d s=%d from=%d to=%d\n", at.Microseconds(), s, from, to)
	en.regrant(h, aps, from)
	en.regrant(h, aps, to)
}

// regrant recomputes one AP's slot schedule after a membership change and
// records the grant (serial phase only).
func (en *Engine) regrant(h hash.Hash, aps []*apState, a int) {
	ap := aps[a]
	ap.sched = mac.EqualShare(en.sc.slotOffset[a], ap.members, en.sc.spec.DemandSlots)
	obsSlotGrants.Inc()
	ap.stream.Event(obs.SimTime{}, "grant",
		obs.Fint("members", int64(ap.sched.Members)),
		obs.Fint("granted", int64(ap.sched.Granted)),
		obs.Fint("offset", int64(ap.sched.Offset)))
	fmt.Fprintf(h, "grant ap=%d members=%d granted=%d offset=%d\n",
		a, ap.sched.Members, ap.sched.Granted, ap.sched.Offset)
}

// pushImpairCycle draws the next blockage (gap, attenuation, duration) from
// the station's stream and schedules its onset. Called only from serial
// phases, so the draw order is deterministic.
func pushImpairCycle(eh *eventHeap, st *stationState, s int, from time.Duration, spec Spec) {
	gap := time.Duration(expDraw(st.rng.float64(), float64(spec.ImpairMeanGap)))
	pen := spec.ImpairMinDB + st.rng.float64()*(spec.ImpairMaxDB-spec.ImpairMinDB)
	dur := time.Duration(expDraw(st.rng.float64(), float64(spec.ImpairMeanDur)))
	at := from + gap
	if at >= spec.Duration {
		return
	}
	eh.push(event{at: at, entity: s, kind: evImpairStart, penaltyDB: pen, impairDur: dur})
}

// appendLine appends one canonical digest line: "<kind> t=<us> s=<id> <extra>".
func appendLine(b []byte, kind string, at time.Duration, s int, extra string) []byte {
	b = append(b, kind...)
	b = append(b, " t="...)
	b = strconv.AppendInt(b, at.Microseconds(), 10)
	b = append(b, " s="...)
	b = strconv.AppendInt(b, int64(s), 10)
	if extra != "" {
		b = append(b, ' ')
		b = append(b, extra...)
	}
	b = append(b, '\n')
	return b
}

// fm renders a float with the shortest round-trip representation.
func fm(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
