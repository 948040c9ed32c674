package dsp

import (
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient between x and y. It
// returns 0 when the inputs are shorter than 2 samples, have different
// lengths, or when either input has zero variance. This is the similarity
// measure the paper applies to PDP and FFT-PDP (CSI) pairs, following the
// mobility-awareness methodology of Sun et al. (CoNEXT'14).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Mean returns the arithmetic mean of x, or 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Min returns the minimum of x, or +Inf for empty input.
func Min(x []float64) float64 {
	m := math.Inf(1)
	for _, v := range x {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of x, or -Inf for empty input.
func Max(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics. x need not be sorted.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the median of x.
func Median(x []float64) float64 { return Quantile(x, 0.5) }

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample x (which is copied).
func NewCDF(x []float64) *CDF {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= v), the fraction of the sample at or below v.
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(c.sorted, q)
}

// Points returns (value, cumulative probability) pairs suitable for plotting
// the CDF as a step curve, downsampled to at most maxPoints points.
func (c *CDF) Points(maxPoints int) (values, probs []float64) {
	n := len(c.sorted)
	if n == 0 {
		return nil, nil
	}
	step := 1
	if maxPoints > 0 && n > maxPoints {
		step = n / maxPoints
	}
	for i := 0; i < n; i += step {
		values = append(values, c.sorted[i])
		probs = append(probs, float64(i+1)/float64(n))
	}
	if values[len(values)-1] != c.sorted[n-1] {
		values = append(values, c.sorted[n-1])
		probs = append(probs, 1)
	}
	return values, probs
}

// BoxStats holds the five-number summary used for the boxplots of Figs 12-13.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Box computes boxplot statistics for x.
func Box(x []float64) BoxStats {
	if len(x) == 0 {
		return BoxStats{Min: math.NaN(), Q1: math.NaN(), Median: math.NaN(), Q3: math.NaN(), Max: math.NaN(), Mean: math.NaN()}
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return BoxStats{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
}

// DB converts a linear power ratio to decibels. Non-positive input yields
// -Inf.
func DB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// Lin converts decibels to a linear power ratio.
func Lin(db float64) float64 { return math.Pow(10, db/10) }
