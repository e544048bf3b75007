package main

import (
	"math"
	"sort"
)

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of v that still has at least ten
// samples beyond it, and that percentile (the maximum, as p100, when
// there are ten samples or fewer).
func tailOf(v []float64) (value, percentile float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := sorted(v)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	i := n - 11 // s[n-10:] are the ten samples beyond it
	return s[i], 100 * float64(i+1) / float64(n)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// ratio is a/b, 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
