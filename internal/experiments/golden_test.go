package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// suiteGoldenDigest is the SHA-256 over every step of the battery at the
// `libra-figures -quick` settings. Any change to a table, figure, ablation
// or the multiap step moves it; a refactor that keeps the science must not.
const suiteGoldenDigest = "3a6da6372be6a7cbcaab3808216e40db986c4e6c07110832be7354e0b174c971"

// TestSuiteGoldenDigest runs all steps of Suite.Run exactly as
// `libra-figures -quick` does (seed 42, Reps 2, Timelines 10) on a fresh
// suite and pins the canonical-order hash of key, text and CSV per step.
func TestSuiteGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full battery")
	}
	res, err := NewSuite(42).Run(RunOptions{Reps: 2, Timelines: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(suiteSteps) {
		t.Fatalf("ran %d steps, want %d", len(res), len(suiteSteps))
	}
	h := sha256.New()
	for _, r := range res {
		h.Write([]byte(r.Key + "\n" + r.Result.String() + r.Result.CSV()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != suiteGoldenDigest {
		t.Fatalf("suite digest = %s, want %s", got, suiteGoldenDigest)
	}
}
