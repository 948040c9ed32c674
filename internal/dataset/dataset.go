// Package dataset emulates the paper's measurement campaign (§4-§5): it
// drives the channel simulator through the displacement, blockage, and
// interference scenarios of Appendix A.2 in every environment, performs the
// exhaustive 25x25 sector level sweep at each state, logs PHY traces for the
// relevant beam pairs, and derives per-entry features and ground-truth
// labels exactly as §5 defines them.
//
// Feature vector (in the order of Table 3):
//
//	0 SNR difference   (initial - current, dB)
//	1 ToF difference   (initial - current, ns; +InfCode when unmeasurable)
//	2 Noise difference (current - initial, dB)
//	3 PDP similarity   (Pearson correlation of the two PDPs)
//	4 CSI similarity   (Pearson correlation of the FFT'd PDPs)
//	5 CDR              (at the current state, initial beam pair and MCS)
//	6 Initial MCS
//
// Ground truth (§5.2): with Th(RA) the best throughput over MCSs <= the
// initial MCS on the initial beam pair, and Th(BA) the best throughput over
// MCSs <= the initial MCS on the new best-SNR beam pair (BA is always
// followed by RA), the label is RA when Th(RA) >= Th(BA) and BA otherwise.
package dataset

import (
	"math"
	"math/rand"
	"sync"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/dsp"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/phy"
)

// Impairment is the type of link impairment of a dataset entry.
type Impairment int

// Impairment kinds (Table 1 rows).
const (
	Displacement Impairment = iota
	Blockage
	Interference
	NoImpairment // NA augmentation entries (§7)
)

// String returns the impairment name.
func (im Impairment) String() string {
	switch im {
	case Displacement:
		return "displacement"
	case Blockage:
		return "blockage"
	case Interference:
		return "interference"
	default:
		return "none"
	}
}

// Action is the adaptation mechanism label.
type Action int

// Label classes. The two-class problem uses BA/RA; the three-class problem
// of §7 adds NA (no adaptation).
const (
	ActBA Action = iota
	ActRA
	ActNA
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case ActBA:
		return "BA"
	case ActRA:
		return "RA"
	default:
		return "NA"
	}
}

// NumFeatures is the feature dimensionality.
const NumFeatures = 7

// FeatureNames names the features in Table 3 order.
var FeatureNames = []string{"SNR", "ToF", "NoiseLevel", "PDP", "CSI", "CDR", "InitialMCS"}

// ToFInfCode encodes an unmeasurable ToF difference (X60 reports ToF as
// infinity under extremely weak signal).
const ToFInfCode = 25.0

// tofClamp bounds the finite ToF-difference feature (Fig. 5 plots -20..20 ns).
const tofClamp = 20.0

// Entry is one labeled dataset sample plus the per-MCS throughput tables the
// trace-driven simulator replays (§8).
type Entry struct {
	// Env names the environment the entry was collected in.
	Env string
	// Building distinguishes the main campaign ("main") from the transfer
	// test buildings ("b1"/"b2").
	Building string
	// Impairment is the scenario type.
	Impairment Impairment
	// PosID identifies the measurement position within the environment.
	PosID int

	// Features is the 7-dimensional feature vector.
	Features [NumFeatures]float64
	// InitMCS is the best MCS at the initial state.
	InitMCS phy.MCS
	// Label is the ground-truth action (ActBA or ActRA; ActNA for
	// augmentation entries).
	Label Action

	// InitSNRdB is the SNR at the initial state on its best pair.
	InitSNRdB float64
	// NewSNRInitPair and NewSNRBestPair are the SNRs at the new state on
	// the initial and new best beam pairs.
	NewSNRInitPair, NewSNRBestPair float64

	// InitThBps is the throughput at the initial state at InitMCS.
	InitThBps float64
	// ThRABps and ThBABps are the §5.2 ground-truth throughputs.
	ThRABps, ThBABps float64

	// InitBeamTh[m] is the expected throughput of MCS m at the new state
	// on the initial beam pair; BestBeamTh[m] likewise on the new best
	// pair. The policy simulator replays these.
	InitBeamTh, BestBeamTh [phy.NumMCS]float64
}

// FeatureSlice returns the features as a fresh []float64 for the ml package.
func (e *Entry) FeatureSlice() []float64 {
	out := make([]float64, NumFeatures)
	copy(out, e.Features[:])
	return out
}

// Dataset is a labeled collection of entries.
type Dataset struct {
	// Name labels the dataset ("main", "testing").
	Name string
	// Entries holds the samples.
	Entries []*Entry
}

// Len returns the number of entries.
func (d *Dataset) Len() int { return len(d.Entries) }

// Filter returns the entries matching the impairment type.
func (d *Dataset) Filter(im Impairment) []*Entry {
	var out []*Entry
	for _, e := range d.Entries {
		if e.Impairment == im {
			out = append(out, e)
		}
	}
	return out
}

// ToML converts to an ml.Dataset. With threeClass false, NA entries are
// skipped and labels are {BA=0, RA=1}; with threeClass true, NA entries are
// included as class 2. The feature matrix is built as one contiguous
// row-major block plus a column-major mirror attached via SetColumns, so the
// tree builder's presort reads contiguous columns — constant allocations for
// the whole conversion instead of one per row.
func (d *Dataset) ToML(threeClass bool) *ml.Dataset {
	out := &ml.Dataset{
		FeatureNames: FeatureNames,
		ClassNames:   []string{"BA", "RA"},
	}
	if threeClass {
		out.ClassNames = []string{"BA", "RA", "NA"}
	}
	n := 0
	for _, e := range d.Entries {
		if e.Label == ActNA && !threeClass {
			continue
		}
		n++
	}
	block := make([]float64, n*NumFeatures)
	out.X = make([][]float64, n)
	out.Y = make([]int, n)
	i := 0
	for _, e := range d.Entries {
		if e.Label == ActNA && !threeClass {
			continue
		}
		row := block[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures]
		copy(row, e.Features[:])
		out.X[i] = row
		out.Y[i] = int(e.Label)
		i++
	}
	colBlock := make([]float64, n*NumFeatures)
	cols := make([][]float64, NumFeatures)
	for f := 0; f < NumFeatures; f++ {
		col := colBlock[f*n : (f+1)*n : (f+1)*n]
		for j := 0; j < n; j++ {
			col[j] = out.X[j][f]
		}
		cols[f] = col
	}
	out.SetColumns(cols)
	return out
}

// CountLabels returns the number of BA, RA, and NA entries for one
// impairment type (Table 1/2 columns). Pass im < 0 for all types.
func (d *Dataset) CountLabels(im Impairment) (ba, ra, na int) {
	for _, e := range d.Entries {
		if im >= 0 && e.Impairment != im {
			continue
		}
		switch e.Label {
		case ActBA:
			ba++
		case ActRA:
			ra++
		default:
			na++
		}
	}
	return ba, ra, na
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// drift models slow environmental dynamics between the two 1-second
// observation windows of an entry: small SNR wander, larger noise-floor
// wander (the paper notes X60 noise readings span a large range even without
// interference), and per-tap PDP scintillation.
type drift struct {
	snrSigma   float64
	noiseSigma float64
	pdpSigma   float64
}

var defaultDrift = drift{snrSigma: 0.4, noiseSigma: 1.0, pdpSigma: 0.15}

// perturbInto writes a drifted copy of m into out, reusing out's PDP backing
// when it is large enough. The RNG draw order — SNR, noise, then one draw per
// strictly positive tap — is the contract the campaign digests pin; it must
// match perturb's historic order exactly. out must not alias m.
//
//lint:noalloc campaign inner loop; the PDP backing is caller-recycled
func perturbInto(out, m *channel.Measurement, d drift, rng *rand.Rand) {
	pdp := out.PDP
	*out = *m
	if cap(pdp) < len(m.PDP) {
		pdp = make([]float64, len(m.PDP))
	} else {
		pdp = pdp[:len(m.PDP)]
	}
	out.PDP = pdp
	out.SNRdB += rng.NormFloat64() * d.snrSigma
	out.NoiseDBm += rng.NormFloat64() * d.noiseSigma
	for i, v := range m.PDP {
		if v > 0 {
			pdp[i] = v * math.Exp(rng.NormFloat64()*d.pdpSigma)
		} else {
			pdp[i] = 0
		}
	}
	// ToF quantization to the 0.5 ns delay resolution.
	if !math.IsInf(out.ToFNs, 1) {
		out.ToFNs = math.Round(out.ToFNs/channel.PDPBinNs) * channel.PDPBinNs
	}
}

// perturb returns a drifted copy of a measurement.
func perturb(m channel.Measurement, d drift, rng *rand.Rand) channel.Measurement {
	var out channel.Measurement
	perturbInto(&out, &m, d, rng)
	return out
}

// Featurize computes the 7-feature vector from the initial- and new-state
// measurements on the initial best beam pair, at the initial MCS, drawing
// the observed CDR from the codeword error process.
func Featurize(initM, newM channel.Measurement, initMCS phy.MCS, rng *rand.Rand) [NumFeatures]float64 {
	return FeaturizeObserved(initM, newM, phy.SampleCDR(initMCS, newM.SNRdB, rng), initMCS)
}

// csiPool recycles CSI spectrum buffers across FeaturizeObserved calls, so
// the two FFT-PDP transforms per entry do not allocate on the campaign hot
// path.
var csiPool = sync.Pool{New: func() any { return new([]float64) }}

// FeaturizeObserved computes the 7-feature vector with a directly observed
// CDR — the online path, where LiBRA reads the CDR off the last frames
// instead of re-deriving it from SNR.
func FeaturizeObserved(initM, newM channel.Measurement, cdr float64, initMCS phy.MCS) [NumFeatures]float64 {
	var f [NumFeatures]float64
	f[0] = initM.SNRdB - newM.SNRdB
	switch {
	case math.IsInf(newM.ToFNs, 1) || math.IsInf(initM.ToFNs, 1):
		f[1] = ToFInfCode
	default:
		diff := initM.ToFNs - newM.ToFNs
		if diff > tofClamp {
			diff = tofClamp
		} else if diff < -tofClamp {
			diff = -tofClamp
		}
		f[1] = diff
	}
	f[2] = newM.NoiseDBm - initM.NoiseDBm
	f[3] = dsp.Pearson(initM.PDP, newM.PDP)
	ca := csiPool.Get().(*[]float64)
	cb := csiPool.Get().(*[]float64)
	*ca = initM.CSIInto(*ca)
	*cb = newM.CSIInto(*cb)
	f[4] = dsp.Pearson(*ca, *cb)
	csiPool.Put(ca)
	csiPool.Put(cb)
	f[5] = cdr
	f[6] = float64(initMCS)
	return f
}

// labelEps absorbs knife-edge throughput differences: the paper's ground
// truth compares measured 1-second throughput averages, where differences
// within ~10% are inside the run-to-run variation of an X60 trace. RA wins ties (§5.2: "perform RA when
// Th(RA) >= Th(BA)").
const labelEps = 0.10

// groundTruth computes the §5.2 label and throughput tables from the SNRs at
// the new state.
func groundTruth(e *Entry) {
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		e.InitBeamTh[m] = phy.ExpectedThroughput(m, e.NewSNRInitPair)
		e.BestBeamTh[m] = phy.ExpectedThroughput(m, e.NewSNRBestPair)
	}
	_, e.ThRABps = phy.BestMCSBelow(e.NewSNRInitPair, e.InitMCS)
	_, e.ThBABps = phy.BestMCSBelow(e.NewSNRBestPair, e.InitMCS)
	if e.ThRABps >= e.ThBABps*(1-labelEps) {
		e.Label = ActRA
	} else {
		e.Label = ActBA
	}
}
