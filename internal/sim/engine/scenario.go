// Package engine is the deterministic multi-AP discrete-event simulator: many
// access points and hundreds of stations advance in one simulated environment
// under TDMA slot contention, inter-link interference and AP handoff, each
// station running an adaptation policy through the same sim.LinkSim arithmetic
// as the single-link paths. The event loop is a binary heap keyed on
// (sim-time, entity, push-sequence); per-entity SplitMix64 streams supply all
// randomness, drawn in the serial push phase; nothing reads the wall clock.
// Event traces and the scenario digest are byte-identical for any worker
// count.
package engine

import (
	"fmt"
	"math"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/sim"
)

// Default knobs; a zero Spec field selects the default, a negative value
// disables the mechanism where that makes sense.
const (
	// DefaultInterval is the event boundary spacing: two TDMA frames.
	DefaultInterval = 20 * time.Millisecond
	// DefaultDemandSlots is each station's offered load in slots per frame.
	DefaultDemandSlots = 25
	// DefaultHysteresisDB is the SNR deficit (current link vs best
	// alternative AP) that must persist before a handoff.
	DefaultHysteresisDB = 6
	// DefaultDeficitBoundaries is how many consecutive segment boundaries
	// the deficit must persist ("sustained").
	DefaultDeficitBoundaries = 2
	// DefaultImpairMeanGap / DefaultImpairMeanDur shape the per-station
	// impairment process: exponential gaps between blockage onsets and
	// exponential blockage durations.
	DefaultImpairMeanGap = 300 * time.Millisecond
	DefaultImpairMeanDur = 100 * time.Millisecond
	// DefaultImpairMinDB..DefaultImpairMaxDB is the attenuation range a
	// blockage draws from — human-torso scale at 60 GHz.
	DefaultImpairMinDB = 10
	DefaultImpairMaxDB = 25
	// InterfererEIRPdBm is a co-channel AP's effective radiated power
	// toward a victim receiver when computing interference penalties. The
	// interfering AP beamforms at its own stations, so a random victim
	// sits in its sidelobes: transmit power minus a ~10 dB sidelobe
	// rolloff. Victims near an interfering AP still lose double-digit dB;
	// distant ones a fraction of a dB.
	InterfererEIRPdBm = channel.DefaultTxPowerDBm - 10
)

// Spec declares a multi-AP scenario. Build precomputes the expensive parts
// (ray tracing, snapshots, interference penalties) into an immutable Scenario
// that can be run many times — with different worker counts — cheaply.
type Spec struct {
	// APs and Stations size the deployment.
	APs, Stations int
	// Duration is the simulated time span.
	Duration time.Duration
	// Seed roots every SplitMix64 stream; same seed, same everything.
	Seed uint64
	// Topology picks the floor plan and AP placement: "grid" spreads APs
	// over the building-2 open area, "line" spaces them along the wide
	// corridor. Default "grid".
	Topology string
	// Params and Policy configure each station's adaptation; Classifier is
	// consulted by the LiBRA policy.
	Params     sim.Params
	Policy     sim.Policy
	Classifier core.Classifier
	// Interval is the segment boundary spacing (default DefaultInterval).
	Interval time.Duration
	// DemandSlots caps each station's TDMA grant (default
	// DefaultDemandSlots; phy.SlotsPerFrame means greedy).
	DemandSlots int
	// HysteresisDB and DeficitBoundaries tune the handoff rule; zero
	// selects the defaults, a negative HysteresisDB disables handoff.
	HysteresisDB      float64
	DeficitBoundaries int
	// ImpairMeanGap and ImpairMeanDur shape the blockage process; zero
	// selects the defaults, a negative gap disables impairments.
	ImpairMeanGap time.Duration
	ImpairMeanDur time.Duration
	// ImpairMinDB/ImpairMaxDB bound the drawn attenuation (zero both
	// selects the defaults).
	ImpairMinDB, ImpairMaxDB float64
}

// withDefaults resolves zero fields.
func (s Spec) withDefaults() Spec {
	if s.Topology == "" {
		s.Topology = "grid"
	}
	if s.Interval == 0 {
		s.Interval = DefaultInterval
	}
	if s.DemandSlots == 0 {
		s.DemandSlots = DefaultDemandSlots
	}
	if s.HysteresisDB == 0 {
		s.HysteresisDB = DefaultHysteresisDB
	}
	if s.DeficitBoundaries == 0 {
		s.DeficitBoundaries = DefaultDeficitBoundaries
	}
	if s.ImpairMeanGap == 0 {
		s.ImpairMeanGap = DefaultImpairMeanGap
	}
	if s.ImpairMeanDur == 0 {
		s.ImpairMeanDur = DefaultImpairMeanDur
	}
	if s.ImpairMinDB == 0 && s.ImpairMaxDB == 0 {
		s.ImpairMinDB, s.ImpairMaxDB = DefaultImpairMinDB, DefaultImpairMaxDB
	}
	return s
}

// validate rejects malformed specs before any tracing work.
func (s Spec) validate() error {
	if s.APs < 1 {
		return fmt.Errorf("engine: APs %d < 1", s.APs)
	}
	if s.Stations < 1 {
		return fmt.Errorf("engine: Stations %d < 1", s.Stations)
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.Interval <= 0 {
		return fmt.Errorf("engine: Interval %v is not positive", s.Interval)
	}
	if s.ImpairMaxDB < s.ImpairMinDB {
		return fmt.Errorf("engine: impairment range [%v, %v] inverted", s.ImpairMinDB, s.ImpairMaxDB)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("engine: Duration %v is not positive", s.Duration)
	}
	switch s.Topology {
	case "grid", "line":
	default:
		return fmt.Errorf("engine: unknown topology %q (want grid or line)", s.Topology)
	}
	return nil
}

// Scenario is the immutable, precomputed form of a Spec: frozen channel
// snapshots for every station-AP pair, clear best-pair SNRs for the handoff
// rule, and worst-case interference penalties for every (station, serving,
// interfering) triple. Safe for concurrent reads; an Engine never mutates it,
// so one Scenario can back many runs.
type Scenario struct {
	spec Spec

	env    *env.Environment
	apPos  []geom.Vec
	staPos []geom.Vec
	// slotOffset staggers each AP's TDMA window across the frame.
	slotOffset []int

	// snaps[s][a] is station s's clear channel toward AP a.
	snaps [][]*channel.Snapshot
	// bestSNR[s][a] and bestTx/bestRx are the clear best beam pair.
	bestSNR        [][]float64
	bestTx, bestRx [][]int
	// penaltyDB[s][a][b] is the SNR cost on link s-a when AP b transmits
	// continuously (0 for b == a).
	penaltyDB [][][]float64
	// initialAP[s] is the strongest AP by clear SNR.
	initialAP []int
}

// Build validates the spec, lays out the topology, ray-traces every
// station-AP link and freezes the results. This is the expensive step —
// O(Stations x APs) sweeps — and runs once; Engine.Run is cheap after it.
func Build(spec Spec) (*Scenario, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	sc := &Scenario{spec: spec}
	sc.slotOffset = make([]int, spec.APs)
	for a := range sc.slotOffset {
		sc.slotOffset[a] = a * phy.SlotsPerFrame / spec.APs
	}
	switch spec.Topology {
	case "line":
		sc.env = env.WideCorridor()
	default:
		sc.env = env.Building2()
	}
	sc.layout()

	center := geom.V(sc.env.Width/2, sc.env.Height/2)
	apArr := make([]*phased.Array, spec.APs)
	for a, p := range sc.apPos {
		apArr[a] = phased.NewArray(p, orientToward(p, center), int64(a+1))
	}

	S, A := spec.Stations, spec.APs
	sc.snaps = make([][]*channel.Snapshot, S)
	sc.bestSNR = make([][]float64, S)
	sc.bestTx = make([][]int, S)
	sc.bestRx = make([][]int, S)
	sc.penaltyDB = make([][][]float64, S)
	sc.initialAP = make([]int, S)
	for s := 0; s < S; s++ {
		pos := sc.staPos[s]
		// The station body points at its nearest AP; beams do the rest.
		near := 0
		for a := 1; a < A; a++ {
			if pos.Sub(sc.apPos[a]).Len() < pos.Sub(sc.apPos[near]).Len() {
				near = a
			}
		}
		rx := phased.NewArray(pos, orientToward(pos, sc.apPos[near]), int64(1000+s))

		sc.snaps[s] = make([]*channel.Snapshot, A)
		sc.bestSNR[s] = make([]float64, A)
		sc.bestTx[s] = make([]int, A)
		sc.bestRx[s] = make([]int, A)
		sc.penaltyDB[s] = make([][]float64, A)
		for a := 0; a < A; a++ {
			l := channel.NewLink(sc.env, apArr[a], rx)
			snap := l.Snapshot()
			tb, rb, snr := snap.BestPair()
			sc.snaps[s][a] = snap
			sc.bestTx[s][a], sc.bestRx[s][a], sc.bestSNR[s][a] = tb, rb, snr
			sc.penaltyDB[s][a] = make([]float64, A)
			for b := 0; b < A; b++ {
				if b == a {
					continue
				}
				intf := l.SnapshotInterfered([]channel.Interferer{{
					Pos: sc.apPos[b], EIRPdBm: InterfererEIRPdBm, DutyCycle: 1,
				}})
				pen := snap.SNRdB(tb, rb) - intf.SNRdB(tb, rb)
				if pen < 0 {
					pen = 0
				}
				sc.penaltyDB[s][a][b] = pen
			}
			if snr > sc.bestSNR[s][sc.initialAP[s]] {
				sc.initialAP[s] = a
			}
		}
	}
	return sc, nil
}

// layout places APs on the topology's pattern and stations from the
// scenario's layout stream.
func (sc *Scenario) layout() {
	spec := sc.spec
	W, H := sc.env.Width, sc.env.Height
	sc.apPos = make([]geom.Vec, spec.APs)
	if spec.Topology == "line" {
		for a := range sc.apPos {
			sc.apPos[a] = geom.V((float64(a)+0.5)*W/float64(spec.APs), H/2)
		}
	} else {
		cols := int(math.Ceil(math.Sqrt(float64(spec.APs))))
		rows := (spec.APs + cols - 1) / cols
		for a := range sc.apPos {
			c, r := a%cols, a/cols
			sc.apPos[a] = geom.V((float64(c)+0.5)*W/float64(cols), (float64(r)+0.5)*H/float64(rows))
		}
	}
	rng := &splitMix64{s: spec.Seed ^ 0xda3e39cb94b95bdb}
	const margin = 1.0
	sc.staPos = make([]geom.Vec, spec.Stations)
	for s := range sc.staPos {
		sc.staPos[s] = geom.V(
			margin+rng.float64()*(W-2*margin),
			margin+rng.float64()*(H-2*margin),
		)
	}
}

// orientToward returns the boresight angle (degrees) from p toward q.
func orientToward(p, q geom.Vec) float64 {
	d := q.Sub(p)
	return math.Atan2(d.Y, d.X) * 180 / math.Pi
}
