package sim

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/ad"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
)

// tableOf builds a throughput table from (mcs, bps) pairs; others are 0.
func tableOf(pairs map[phy.MCS]float64) thTable {
	var t thTable
	for m, v := range pairs {
		t[m] = v
	}
	return t
}

// mustRun runs one scenario and fails the test on error.
func mustRun(t *testing.T, sc Scenario, opt Options) Result {
	t.Helper()
	res, err := Run(context.Background(), sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func stdParams() Params {
	return Params{
		BAOverhead: 5 * time.Millisecond,
		FAT:        2 * time.Millisecond,
		FlowDur:    time.Second,
	}
}

func TestRASearchFindsHighest(t *testing.T) {
	table := tableOf(map[phy.MCS]float64{4: 2e9, 3: 1.5e9, 2: 1.2e9, 1: 0.9e9, 0: 0.3e9})
	out := raSearch(&table, 6, 2*time.Millisecond)
	if !out.found {
		t.Fatal("not found")
	}
	if out.mcs != 4 || out.th != 2e9 {
		t.Errorf("selected %v at %v", out.mcs, out.th)
	}
	// Probes: 6, 5 (dead), 4 (working best), 3 (lower -> stop).
	if out.probes != 4 {
		t.Errorf("probes = %d", out.probes)
	}
	// First working is the third probe.
	if out.firstWorking != 3 {
		t.Errorf("firstWorking = %d", out.firstWorking)
	}
}

func TestRASearchNoneWorking(t *testing.T) {
	table := tableOf(map[phy.MCS]float64{0: 50e6}) // below the 150 Mbps bar
	out := raSearch(&table, phy.MaxMCS, 2*time.Millisecond)
	if out.found {
		t.Fatal("found on a dead table")
	}
	if out.probes != phy.NumMCS {
		t.Errorf("probes = %d, want all %d", out.probes, phy.NumMCS)
	}
}

func TestRASearchBytesAccounting(t *testing.T) {
	fat := 2 * time.Millisecond
	table := tableOf(map[phy.MCS]float64{2: 1e9, 1: 0.8e9})
	out := raSearch(&table, 3, fat)
	// Probes at MCS3 (0), MCS2 (1e9), MCS1 (0.8e9, lower -> stop).
	wantBytes := (0 + 1e9 + 0.8e9) * fat.Seconds() / 8
	if math.Abs(out.searchBytes-wantBytes) > 1 {
		t.Errorf("searchBytes = %v, want %v", out.searchBytes, wantBytes)
	}
}

func TestRASearchStartClamped(t *testing.T) {
	table := tableOf(map[phy.MCS]float64{0: 300e6})
	if out := raSearch(&table, phy.MCS(50), time.Millisecond); !out.found {
		t.Error("clamped start failed")
	}
	if out := raSearch(&table, phy.MCS(-3), time.Millisecond); out.probes != 1 {
		t.Error("negative start should probe MCS0 once")
	}
}

// handEntry builds an entry with a clean, analyzable structure: the initial
// beam supports MCS2 at 1 Gbps; the best beam supports MCS4 at 2 Gbps.
func handEntry() *dataset.Entry {
	e := &dataset.Entry{InitMCS: 4}
	e.InitBeamTh = tableOf(map[phy.MCS]float64{2: 1e9, 1: 0.9e9, 0: 0.3e9})
	e.BestBeamTh = tableOf(map[phy.MCS]float64{4: 2e9, 3: 1.6e9, 2: 1.1e9, 1: 0.9e9, 0: 0.3e9})
	e.Features[5] = 0.2 // CDR nonzero: ACKs still flowing
	return e
}

func TestRunPlanRAFirstAccounting(t *testing.T) {
	e := handEntry()
	p := stdParams()
	out := runPlan(e, p, false)
	// RA path: probes MCS4 (0), MCS3 (0), MCS2 (1e9) <- first working at
	// probe 3, MCS1 (0.9e9 < 1e9) -> stop. Settled at MCS2 on init beam.
	if out.FinalMCS != 2 || out.FinalOnBestBeam {
		t.Errorf("final = %v onBest=%v", out.FinalMCS, out.FinalOnBestBeam)
	}
	if want := 3 * p.FAT; out.RecoveryDelay != want {
		t.Errorf("delay = %v, want %v", out.RecoveryDelay, want)
	}
	// Bytes: 4 probes x 2 ms at (0 + 0 + 1e9 + 0.9e9), then 992 ms at 1e9.
	searchBytes := (1e9 + 0.9e9) * p.FAT.Seconds() / 8
	settleBytes := 1e9 * (p.FlowDur - 4*p.FAT).Seconds() / 8
	want := searchBytes + settleBytes
	if math.Abs(out.Bytes-want) > 1 {
		t.Errorf("bytes = %v, want %v", out.Bytes, want)
	}
	if !out.UsedRA || out.UsedBA {
		t.Error("mechanism flags wrong")
	}
}

func TestRunPlanBAFirstAccounting(t *testing.T) {
	e := handEntry()
	p := stdParams()
	out := runPlan(e, p, true)
	// BA: 5 ms dead air, then RA on best beam finds MCS4 on the first
	// probe, MCS3 lower -> stop. Settled at MCS4 on best beam.
	if out.FinalMCS != 4 || !out.FinalOnBestBeam {
		t.Errorf("final = %v onBest=%v", out.FinalMCS, out.FinalOnBestBeam)
	}
	if want := p.BAOverhead + 1*p.FAT; out.RecoveryDelay != want {
		t.Errorf("delay = %v, want %v", out.RecoveryDelay, want)
	}
	searchBytes := (2e9 + 1.6e9) * p.FAT.Seconds() / 8
	settleBytes := 2e9 * (p.FlowDur - p.BAOverhead - 2*p.FAT).Seconds() / 8
	want := searchBytes + settleBytes
	if math.Abs(out.Bytes-want) > 1 {
		t.Errorf("bytes = %v, want %v", out.Bytes, want)
	}
	if !out.UsedBA || !out.UsedRA {
		t.Error("mechanism flags wrong")
	}
}

func TestRunPlanRAFallsBackToBA(t *testing.T) {
	e := handEntry()
	e.InitBeamTh = thTable{} // initial beam is dead
	p := stdParams()
	out := runPlan(e, p, false)
	if !out.UsedBA {
		t.Error("RA failure did not trigger BA")
	}
	if out.FinalMCS != 4 || !out.FinalOnBestBeam {
		t.Errorf("final = %v", out.FinalMCS)
	}
	// Delay: 5 dead probes (MCS4..0) + BA + 1 probe.
	want := 5*p.FAT + p.BAOverhead + 1*p.FAT
	if out.RecoveryDelay != want {
		t.Errorf("delay = %v, want %v", out.RecoveryDelay, want)
	}
}

func TestRunPlanUnrecoverable(t *testing.T) {
	e := &dataset.Entry{InitMCS: 4}
	p := stdParams()
	out := runPlan(e, p, false)
	if out.Bytes != 0 {
		t.Errorf("dead link delivered %v bytes", out.Bytes)
	}
	if out.RecoveryDelay != core.Dmax(p.Config()) {
		t.Errorf("delay = %v, want Dmax", out.RecoveryDelay)
	}
}

func TestBytesCappedByFlowDuration(t *testing.T) {
	e := handEntry()
	p := stdParams()
	p.FlowDur = 4 * time.Millisecond // flow ends during the RA search
	out := runPlan(e, p, false)
	maxBytes := 2e9 * p.FlowDur.Seconds() / 8
	if out.Bytes > maxBytes {
		t.Errorf("bytes %v exceed flow capacity %v", out.Bytes, maxBytes)
	}
	// Delay still reflects full recovery even past flow end.
	if out.RecoveryDelay != 3*p.FAT {
		t.Errorf("delay = %v", out.RecoveryDelay)
	}
}

func TestOracleDataDominates(t *testing.T) {
	e := handEntry()
	p := stdParams()
	oracle := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: OracleData}).Outcome
	ba := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: BAFirst}).Outcome
	ra := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: RAFirst}).Outcome
	if oracle.Bytes < ba.Bytes || oracle.Bytes < ra.Bytes {
		t.Errorf("oracle %v below policies %v/%v", oracle.Bytes, ba.Bytes, ra.Bytes)
	}
}

func TestOracleDelayDominates(t *testing.T) {
	e := handEntry()
	p := stdParams()
	oracle := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: OracleDelay}).Outcome
	ba := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: BAFirst}).Outcome
	ra := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: RAFirst}).Outcome
	if oracle.RecoveryDelay > ba.RecoveryDelay || oracle.RecoveryDelay > ra.RecoveryDelay {
		t.Errorf("oracle delay %v above policies %v/%v", oracle.RecoveryDelay, ba.RecoveryDelay, ra.RecoveryDelay)
	}
}

// fixedClassifier always answers the same action.
type fixedClassifier struct{ a dataset.Action }

func (f fixedClassifier) Classify([]float64) dataset.Action { return f.a }
func (f fixedClassifier) Name() string                      { return "fixed" }

func TestLiBRAFollowsClassifier(t *testing.T) {
	e := handEntry()
	p := stdParams()
	asBA := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActBA}}).Outcome
	wantBA := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: BAFirst}).Outcome
	if asBA.Bytes != wantBA.Bytes || asBA.RecoveryDelay != wantBA.RecoveryDelay {
		t.Error("LiBRA(BA) differs from BA First")
	}
	asRA := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActRA}}).Outcome
	wantRA := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: RAFirst}).Outcome
	if asRA.Bytes != wantRA.Bytes {
		t.Error("LiBRA(RA) differs from RA First")
	}
}

func TestLiBRANAPenalty(t *testing.T) {
	e := handEntry()
	p := stdParams()
	na := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActNA}}).Outcome
	direct := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{core.MissingACKAction(e.InitMCS, p.Config())}}).Outcome
	if na.RecoveryDelay <= direct.RecoveryDelay {
		t.Error("NA misprediction should cost recovery delay")
	}
}

func TestLiBRAMissingACKPath(t *testing.T) {
	e := handEntry()
	e.Features[5] = 0   // no CDR observed
	e.InitBeamTh[4] = 0 // and the current MCS is dead
	e.InitBeamTh[2] = 1e9
	p := stdParams()
	p.BAOverhead = 500 * time.Microsecond // cheap BA: missing-ACK rule says BA
	got := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActRA}}).Outcome
	want := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: BAFirst}).Outcome
	if got.Bytes != want.Bytes {
		t.Error("missing-ACK rule not applied (classifier should be bypassed)")
	}
}

func TestPolicyStrings(t *testing.T) {
	names := map[Policy]string{
		LiBRA: "LiBRA", BAFirst: "BA First", RAFirst: "RA First",
		OracleData: "Oracle-Data", OracleDelay: "Oracle-Delay",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d String = %q", p, p.String())
		}
	}
	if Policy(99).String() != "unknown" {
		t.Error("unknown policy string")
	}
}

func TestParamsConfig(t *testing.T) {
	p := Params{BAOverhead: 250 * time.Millisecond, FAT: 10 * time.Millisecond}
	cfg := p.Config()
	if cfg.Alpha != 0.5 {
		t.Errorf("high-overhead alpha = %v", cfg.Alpha)
	}
	if cfg.BAOverhead != p.BAOverhead || cfg.FAT != p.FAT {
		t.Error("params not propagated")
	}
}

func TestGridConstants(t *testing.T) {
	if len(BAOverheads) != 4 || len(FATs) != 2 || len(FlowDurs) != 2 {
		t.Error("evaluation grid changed (§8.1 uses 4 BA overheads, 2 FATs, 2 flows)")
	}
}

func TestGridMatchesStandardOverheadModels(t *testing.T) {
	// §8.1 derives the four BA overheads from standard timing models: the
	// O(N) quasi-omni SLS at 30 and 3 degree beamwidths, and the O(N^2)
	// directional search at 9 and 7 degrees. The grid constants must stay
	// within 50% of the first-principles models in internal/ad.
	models := []time.Duration{
		ad.SLSOverhead(30), ad.SLSOverhead(3),
		ad.ExhaustiveOverhead(9), ad.ExhaustiveOverhead(7),
	}
	for i, want := range models {
		got := BAOverheads[i]
		ratio := float64(got) / float64(want)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("BAOverheads[%d] = %v, standard model gives %v", i, got, want)
		}
	}
}

func TestRxInitiatedCostsSignaling(t *testing.T) {
	e := handEntry()
	p := stdParams()
	for _, act := range []dataset.Action{dataset.ActBA, dataset.ActRA, dataset.ActNA} {
		clf := fixedClassifier{act}
		tx := mustRun(t, Scenario{Entry: e}, Options{Params: p, Policy: LiBRA, Classifier: clf}).Outcome
		rx := mustRun(t, Scenario{Entry: e}, Options{Params: p, Variant: VariantRxInitiated, Classifier: clf}).Outcome
		if rx.RecoveryDelay != tx.RecoveryDelay+RxSignalOverhead {
			t.Errorf("%v: rx delay %v, tx delay %v: signaling not charged", act, rx.RecoveryDelay, tx.RecoveryDelay)
		}
		if act != dataset.ActNA && rx.Bytes >= tx.Bytes {
			t.Errorf("%v: signaling airtime should cost bytes", act)
		}
	}
}

func TestRxInitiatedSkipsMissingACKRule(t *testing.T) {
	// The Rx always has metrics, so the classifier decides even when the
	// Tx-side would have been blind (CDR 0).
	e := handEntry()
	e.Features[5] = 0
	e.InitBeamTh = thTable{}
	e.InitBeamTh[2] = 1e9 // RA can still work on the init beam at MCS2
	p := stdParams()
	p.BAOverhead = 250 * time.Millisecond
	// Tx-initiated with a missing ACK and high MCS + costly BA: RA rule.
	// Rx-initiated obeys the classifier saying BA.
	rx := mustRun(t, Scenario{Entry: e}, Options{Params: p, Variant: VariantRxInitiated, Classifier: fixedClassifier{dataset.ActBA}}).Outcome
	if !rx.UsedBA {
		t.Error("Rx-initiated ignored the classifier")
	}
}
