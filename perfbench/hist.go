package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a fixed log-bucket latency histogram over non-negative
// nanosecond values. Every power-of-two octave is split into 64 equal
// buckets, so a bucket is at most 1/64 (1.6%) of its lower bound wide and
// a percentile read from it is within that of the exact order statistic.
// Values below 64 ns get one bucket each. The bucket array is allocated
// once, so recording never allocates and the harness's memory does not
// grow with the request count. Counts are atomic: several goroutines may
// record into one hist at once.
type hist struct {
	counts [histBuckets]atomic.Uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxExp caps the range at 2^46 ns (about 19.5 hours); larger
	// values land in the last bucket.
	histMaxExp  = 46
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	m := (v >> (e - histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + int(m)
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	g, m := i/histSub, i%histSub
	e := g + histSubBits - 1
	w := uint64(1) << (e - histSubBits)
	return float64(uint64(1)<<e + uint64(m)*w), float64(w)
}

// add records one duration; negative durations count as zero.
func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))].Add(1)
}

// merge adds o's counts into h.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
}

// count returns the number of recorded values.
func (h *hist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the q-quantile (0 <= q <= 1) in nanoseconds: the value
// of rank q*(n-1) in sorted order, interpolated linearly inside the bucket
// that holds that rank. It returns 0 for an empty hist.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, w := bucketRange(i)
			// Spread the bucket's c values evenly over its width.
			return lo + w*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += c
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// tailQuantile returns the highest of the quantiles 0.99, 0.98, 0.95, 0.9,
// 0.75 and 0.5 that still has at least ten samples beyond it among n; with
// n >= 1000 that is 0.99.
func tailQuantile(n uint64) float64 {
	// Shares beyond each quantile, in basis points, so the test is exact.
	for _, beyond := range []uint64{100, 200, 500, 1000, 2500} {
		if n*beyond >= 10*10000 {
			return 1 - float64(beyond)/10000
		}
	}
	return 0.5
}
