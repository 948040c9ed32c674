package main

import (
	"bytes"
	"errors"
	"testing"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/sim/engine"
)

func TestPinnedCampaignDigests(t *testing.T) {
	main := dataset.GenerateMain(defaultSeed).Digest()
	test := dataset.GenerateTest(defaultSeed).Digest()
	if err := checkCampaignDigests(main, test); err != nil {
		t.Fatal(err)
	}
	if checkCampaignDigests(main, main) == nil || checkCampaignDigests(test, test) == nil {
		t.Fatal("a wrong campaign digest passed the pinned-digest gate")
	}
}

func TestLDSGateRejectsFlippedByte(t *testing.T) {
	c := dataset.GenerateTest(defaultSeed)
	var buf bytes.Buffer
	back, digest, err := ldsRoundTrip(c, &buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != digest || digest != c.Digest() {
		t.Fatal("round trip returned a different campaign")
	}
	data := buf.Bytes()
	for _, pos := range []int{0, 30, len(data) / 2, len(data) - 40, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x10
		if _, err := checkLDS(bad, digest); err == nil {
			t.Errorf("flipping byte %d of %d passed the .lds gate", pos, len(data))
		}
	}
	if _, err := checkLDS(data, dataset.GenerateTest(defaultSeed+1).Digest()); err == nil {
		t.Error("an .lds image passed against another campaign's digest")
	}
}

func TestClassGateRejectsWrongClass(t *testing.T) {
	want := []int{0, 1, 2, 2}
	if err := checkClasses("q", []int{0, 1, 2, 2}, want); err != nil {
		t.Fatal(err)
	}
	if checkClasses("q", []int{0, 1, 1, 2}, want) == nil {
		t.Error("a wrong class passed the class gate")
	}
	if checkClasses("q", []int{0, 1, 2}, want) == nil {
		t.Error("a missing class passed the class gate")
	}
}

func TestScenarioGate(t *testing.T) {
	good := &engine.Result{Digest: pinnedScenarioDigest, Events: 10, Handoffs: 1}
	if err := checkScenario(good, true); err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*engine.Result{
		"wrong pinned digest": {Digest: "00" + pinnedScenarioDigest[2:], Events: 10, Handoffs: 1},
		"no digest":           {Events: 10, Handoffs: 1},
		"no events":           {Digest: pinnedScenarioDigest, Handoffs: 1},
		"no handoffs":         {Digest: pinnedScenarioDigest, Events: 10},
	} {
		if checkScenario(res, true) == nil {
			t.Errorf("%s passed the scenario gate", name)
		}
	}
	other := &engine.Result{Digest: "ab", Events: 10, Handoffs: 1}
	if err := checkScenario(other, false); err != nil {
		t.Errorf("an unpinned scenario failed: %v", err)
	}
}

func TestAuditGate(t *testing.T) {
	var buf bytes.Buffer
	l, err := decisionlog.New(&buf, decisionlog.Config{NFeat: dataset.NumFeatures})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		l.Publish(0, &decisionlog.Record{Kind: decisionlog.KindDecision, ReqID: uint64(i)})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := checkAuditLog(data, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := checkAuditLog(data, 101); err == nil {
		t.Error("a log short of the predicted count passed the audit gate")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 1
	if _, err := checkAuditLog(bad, 100); !errors.Is(err, decisionlog.ErrCorrupt) {
		t.Errorf("a flipped audit-log byte gave %v, want ErrCorrupt", err)
	}
}
