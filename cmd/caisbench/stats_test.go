package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the definition the benchmark's spreads
// are judged by; the wants were computed with Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{5, 7}, 4.5, 6, 7.5},
		{[]float64{0.9, 0.63, 0.67, 0.69, 0.66, 0.64, 0.7, 0.65, 0.68, 0.62}, 0.6375, 0.665, 0.6924999999999999},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for _, g := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if math.Abs(g[0]-g[1]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}
