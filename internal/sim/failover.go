package sim

import (
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
)

// Failover-beam policy, approximating the non-standard-compliant MOCA
// approach the paper discusses in §8: alongside the primary beam pair the
// device maintains a failover pair (the best pair whose Tx sector differs
// from the primary's, captured at the last full sweep). On a break it
// switches to the failover and runs RA there — one cheap switch instead of
// a sweep — and only falls back to a full BA + RA when the failover cannot
// restore the link either.
//
// The paper's critique (backed by their MSWiM'20 study) is that a failover
// captured at the initial state does not survive angular displacement: both
// the primary and the stale failover point the old way. The tests and the
// ablation bench quantify exactly that.

// FailoverSwitchTime is the cost of retuning to an already-known beam pair
// (electronic switching plus one confirmation exchange).
const FailoverSwitchTime = 100 * time.Microsecond

// FailoverSeparation is the minimum Tx-sector distance between the primary
// and the failover. Adjacent sectors share the same physical path (their
// main lobes overlap), so a useful failover must be spatially diverse —
// typically a reflection.
const FailoverSeparation = 6

// FailoverPair finds the failover beam pair on a snapshot: the best pair
// with BOTH sectors at least FailoverSeparation away from the primary's.
// Separating only the Tx sector is not enough — the wide main lobes leak
// enough energy along the primary path that the "different" sector still
// rides the same ray; a genuine backup must redirect both ends onto a
// reflection.
func FailoverPair(snap *channel.Snapshot, primaryTx, primaryRx int) (tx, rx int, snr float64) {
	sweep := snap.Sweep()
	snr = -1e18
	near := func(a, b int) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d < FailoverSeparation
	}
	for t := range sweep {
		if near(t, primaryTx) {
			continue
		}
		for r := range sweep[t] {
			if near(r, primaryRx) {
				continue
			}
			if sweep[t][r] > snr {
				snr, tx, rx = sweep[t][r], t, r
			}
		}
	}
	return tx, rx, snr
}

// runEntryFailover replays one break under the failover policy
// (VariantFailover). When the failover table is zero the failover is treated
// as dead and the policy degenerates to RA-then-BA.
func runEntryFailover(e *dataset.Entry, failover *[phy.NumMCS]float64, p Params) Outcome {
	var (
		elapsed time.Duration
		bytes   float64
		out     Outcome
	)
	flow := p.FlowDur
	dmax := core.Dmax(p.Config())
	add := func(b float64, d time.Duration) {
		remaining := flow - elapsed
		if remaining > 0 {
			if d <= remaining {
				bytes += b
			} else if d > 0 {
				bytes += b * float64(remaining) / float64(d)
			}
		}
		elapsed += d
	}

	// Switch to the failover pair and search rates there.
	add(0, FailoverSwitchTime)
	ra := raSearch(failover, e.InitMCS, p.FAT)
	out.UsedRA = true
	if ra.found {
		add(ra.searchBytes, time.Duration(ra.probes)*p.FAT)
		out.RecoveryDelay = FailoverSwitchTime + time.Duration(ra.firstWorking)*p.FAT
		out.FinalMCS = ra.mcs
		settle(&bytes, &elapsed, flow, (*failover)[ra.mcs])
		out.Bytes = bytes
		return out
	}
	// Failover dead too: full BA + RA (charge everything).
	add(ra.searchBytes, time.Duration(ra.probes)*p.FAT)
	out.UsedBA = true
	add(0, p.BAOverhead)
	ra2 := raSearch(&e.BestBeamTh, e.InitMCS, p.FAT)
	if ra2.found {
		add(ra2.searchBytes, time.Duration(ra2.probes)*p.FAT)
		out.RecoveryDelay = FailoverSwitchTime + time.Duration(ra.probes)*p.FAT +
			p.BAOverhead + time.Duration(ra2.firstWorking)*p.FAT
		out.FinalMCS, out.FinalOnBestBeam = ra2.mcs, true
		settle(&bytes, &elapsed, flow, e.BestBeamTh[ra2.mcs])
	} else {
		out.RecoveryDelay = dmax
	}
	out.Bytes = bytes
	return out
}
