package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers and does
// not repeat from run to run.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 100) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q/100)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-th percentile.
func supported(n int, q float64) bool {
	return float64(n)*(100-q)/100 >= minBeyond
}

// samples is a set of measurements of one quantity.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) p(q float64) float64 { return percentile(s.sorted(), q) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func median(v []float64) float64 { return samples(v).p(50) }

// in converts durations to samples counted in unit.
func in(unit time.Duration, ds []time.Duration) samples {
	out := make(samples, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func durationsUS(ds []time.Duration) samples { return in(time.Microsecond, ds) }
func durationsMS(ds []time.Duration) samples { return in(time.Millisecond, ds) }

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
