package libra

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// mustRun runs one scenario through the facade and fails the test on error.
func mustRun(t *testing.T, sc Scenario, opt RunOptions) RunResult {
	t.Helper()
	res, err := Run(context.Background(), sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPublicAPIEndToEnd exercises the exported surface exactly as the README
// quickstart does: build a link, train LiBRA, break the link, decide, and
// drive the online controller.
func TestPublicAPIEndToEnd(t *testing.T) {
	camp := GenerateTestDataset(3) // smaller campaign keeps the test fast
	clf, err := TrainClassifier(camp, 1)
	if err != nil {
		t.Fatal(err)
	}

	e := MediumCorridor()
	tx := NewArray(V(0.5, 1.6), 0, 7)
	rx := NewArray(V(8.5, 1.6), 180, 8)
	link := NewLink(e, tx, rx)
	if _, _, snr := link.BestPair(); snr < 5 {
		t.Fatalf("link SNR = %v", snr)
	}

	st := NewStation(link, rand.New(rand.NewSource(9)))
	ctrl := NewController(st, clf, DefaultConfig())
	ctrl.Bootstrap()
	bits := ctrl.Run(100)
	if bits <= 0 {
		t.Fatal("controller delivered nothing")
	}

	// Policy simulation over the campaign's entries.
	p := Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second}
	var libra, oracle float64
	for _, entry := range camp.Entries {
		if entry.Label == ActNA {
			continue
		}
		libra += mustRun(t, Scenario{Entry: entry}, RunOptions{Params: p, Policy: PolicyLiBRA, Classifier: clf}).Outcome.Bytes
		oracle += mustRun(t, Scenario{Entry: entry}, RunOptions{Params: p, Policy: PolicyOracleData}).Outcome.Bytes
	}
	if libra <= 0 || oracle < libra {
		t.Fatalf("bytes: libra=%v oracle=%v", libra, oracle)
	}
	if ratio := libra / oracle; ratio < 0.8 {
		t.Errorf("LiBRA delivered only %.0f%% of oracle bytes", ratio*100)
	}
}

// TestPublicTimelineAndVR exercises the multi-impairment and VR surfaces.
func TestPublicTimelineAndVR(t *testing.T) {
	camp := GenerateTestDataset(4)
	clf, err := TrainClassifier(camp, 1)
	if err != nil {
		t.Fatal(err)
	}
	pools := NewScenarioPools(11)
	rng := rand.New(rand.NewSource(12))
	tl := pools.RandomTimeline(0 /* Motion */, rng)
	p := Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond}
	res := mustRun(t, Scenario{Timeline: tl}, RunOptions{Params: p, Policy: PolicyLiBRA, Classifier: clf}).Timeline
	if res.Bytes <= 0 {
		t.Fatal("timeline delivered nothing")
	}
	scene := VikingVillage(2*time.Second, 5)
	play := PlayVR(scene, res.Rate, 100*time.Millisecond)
	if play.Stalls < 0 {
		t.Fatal("negative stalls")
	}
}
