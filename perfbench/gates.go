package main

import (
	"bytes"
	"fmt"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/sim/engine"
)

// The correctness gates. Each returns an error that makes its operation
// count as failed; none of them panics or lets a corrupt input through.

// defaultSeed seeds the model every serve and multiap run uses and the
// campaign-train warm-up op; its outputs are pinned below. It is also the
// default --seed, and a multiap run at this seed checks its first
// scenario against pinnedScenarioDigest.
const defaultSeed = 42

// Pinned outputs at defaultSeed. A change to any of them means the program
// computes different bytes, and a speed-up measured on it does not count.
const (
	// dataset.GenerateMain(42).Digest(), also pinned by the dataset tests.
	pinnedMainDigest = "31faeadd559977530e830728d51d63af993823d8c965500fe1fc859dbe5bae4b"
	// dataset.GenerateTest(42).Digest().
	pinnedTestDigest = "fe9de0c44f480f21df3fa9323913c6fd312934a5e21cdaa35313f03ddcd96e6a"
	// The multiap scenario at scenario seed 42; `libra-sim -aps 12
	// -stations 192 -duration 20s -topology grid -policy libra -seed 42`
	// prints the same digest.
	pinnedScenarioDigest = "303b93240653a056ecdf695aa6ada81e1d4f1944c9071445ae81401d4bb1130a"
)

// checkCampaignDigests compares the default-seed campaign digests with the
// pinned values.
func checkCampaignDigests(main, test string) error {
	if main != pinnedMainDigest {
		return fmt.Errorf("main campaign digest %s, pinned %s", main, pinnedMainDigest)
	}
	if test != pinnedTestDigest {
		return fmt.Errorf("test campaign digest %s, pinned %s", test, pinnedTestDigest)
	}
	return nil
}

// ldsRoundTrip writes c as .lds into buf (reset first), reads it back, and
// checks that the read-back campaign has c's digest, which it returns.
func ldsRoundTrip(c *dataset.Campaign, buf *bytes.Buffer, workers int) (*dataset.Campaign, string, error) {
	buf.Reset()
	if err := c.WriteLDS(buf, 0, workers); err != nil {
		return nil, "", fmt.Errorf("writing .lds: %w", err)
	}
	digest := c.Digest()
	back, err := checkLDS(buf.Bytes(), digest)
	return back, digest, err
}

// checkLDS decodes an .lds image and checks its digest.
func checkLDS(data []byte, want string) (*dataset.Campaign, error) {
	c, err := dataset.ReadLDS(data)
	if err != nil {
		return nil, fmt.Errorf("reading .lds back: %w", err)
	}
	if got := c.Digest(); got != want {
		return nil, fmt.Errorf(".lds round trip changed the campaign: digest %s, want %s", got, want)
	}
	return c, nil
}

// checkClasses demands got == want row for row.
func checkClasses(what string, got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d classes for %d rows", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d class %d, float64 forest says %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkScenario gates one multiap result: a digest, events and handoffs,
// and the pinned digest when pinned is set.
func checkScenario(res *engine.Result, pinned bool) error {
	switch {
	case res.Digest == "":
		return fmt.Errorf("scenario result has no digest")
	case res.Events <= 0:
		return fmt.Errorf("scenario ran %d events", res.Events)
	case res.Handoffs <= 0:
		return fmt.Errorf("scenario made %d handoffs", res.Handoffs)
	case pinned && res.Digest != pinnedScenarioDigest:
		return fmt.Errorf("scenario digest %s, pinned %s", res.Digest, pinnedScenarioDigest)
	}
	return nil
}

// checkAuditLog decodes an LDL1 image and demands exactly want records and
// no drops.
func checkAuditLog(data []byte, want int) (*decisionlog.LogData, error) {
	ld, err := decisionlog.Read(data)
	if err != nil {
		return nil, fmt.Errorf("audit log: %w", err)
	}
	if ld.Drops != 0 {
		return nil, fmt.Errorf("audit log dropped %d records", ld.Drops)
	}
	if len(ld.Records) != want {
		return nil, fmt.Errorf("audit log holds %d records, sampling predicts %d", len(ld.Records), want)
	}
	return ld, nil
}
