package main

import (
	"math"
	"sort"
)

// sample summarises one metric of one run: the value reported, the quartiles
// of the per-pass (codec) or per-block (served_mix) values behind it, and how
// many of those there were. Exact counts and single measurements carry
// P25 == P75 == Value.
type sample struct {
	Value float64 `json:"value"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count), or NaN for no data.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile by the exclusive method —
// the one Python's statistics.quantiles(values, n=4) uses, so a spread
// computed here matches the one the driver computes. Fewer than two values
// have no spread: both quartiles equal the value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 {
		ld := len(s)
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest nearest-rank percentile with at least ten samples
// beyond it, capped at p99, and which percentile that was: a tail estimated
// from a handful of requests does not repeat. ok is false below twenty
// samples, where that percentile would sit at or under the median.
func tail(xs []float64) (v, p float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	rank := min(int(math.Ceil(0.99*float64(n))), n-10)
	return sorted(xs)[rank-1], float64(rank) / float64(n), true
}

// summarise builds a sample whose value is the median of xs.
func summarise(xs []float64, unit string) sample {
	q1, q3 := quartiles(xs)
	return sample{Value: median(xs), P25: q1, P75: q3, N: len(xs), Unit: unit}
}

// summariseOver builds a sample whose value is the median of all, with the
// quartiles of the per-pass (or per-block) medians as its spread: the
// quartiles of single latencies would describe the workload, not the noise.
func summariseOver(all, perPass []float64, unit string) sample {
	q1, q3 := quartiles(perPass)
	return sample{Value: median(all), P25: q1, P75: q3, N: len(all), Unit: unit}
}

// exact builds a sample for a count or a single measurement.
func exact(v float64, unit string) sample {
	return sample{Value: v, P25: v, P75: v, N: 1, Unit: unit}
}
