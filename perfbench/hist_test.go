package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketRangeHoldsItsValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := uint64(math.Exp(rng.Float64() * math.Log(1<<45)))
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, lo+w)
		}
		if v >= histSub && w > lo/histSub {
			t.Fatalf("bucket of %d is %v wide, more than 1/%d of %v", v, w, histSub, lo)
		}
	}
	if got := bucketOf(1 << 60); got != histBuckets-1 {
		t.Fatalf("an overflowing value lands in bucket %d, want the last (%d)", got, histBuckets-1)
	}
}

// TestQuantileMatchesSortedSlice compares the histogram's percentiles with
// the exact order statistics of the same values.
func TestQuantileMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 999, 100000} {
		h := new(hist)
		vals := make([]float64, n)
		for i := range vals {
			// Log-uniform from 30 ns to 1 s, like latencies.
			d := time.Duration(math.Exp(math.Log(30) + rng.Float64()*math.Log(1e9/30)))
			h.add(d)
			vals[i] = float64(d)
		}
		sort.Float64s(vals)
		if got := h.count(); got != uint64(n) {
			t.Fatalf("n=%d: count %d", n, got)
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			want := vals[int(q*float64(n-1))]
			got := h.quantile(q)
			if tol := want/histSub + 1; math.Abs(got-want) > tol {
				t.Errorf("n=%d q=%v: hist %v, sorted slice %v (tolerance %v)", n, q, got, want, tol)
			}
		}
	}
	if got := new(hist).quantile(0.5); got != 0 {
		t.Errorf("empty hist quantile %v, want 0", got)
	}
}

func TestMergeAndConcurrentAdds(t *testing.T) {
	a, b := new(hist), new(hist)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.add(time.Duration(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	b.add(-5) // counts as zero
	b.merge(a)
	if got := b.count(); got != 4001 {
		t.Fatalf("merged count %d, want 4001", got)
	}
	if got := b.quantile(0); got > 1 {
		t.Fatalf("a negative duration recorded as %v, want 0", got)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.98}, {200, 0.95}, {100, 0.9}, {40, 0.75}, {5, 0.5}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
