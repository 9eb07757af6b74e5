package main

import (
	"math"
	"sort"
)

// tailRank is how many samples must lie beyond a reported tail percentile.
const tailRank = 10

// quantile returns the Harrell-Davis estimate of the q-quantile (0..1) of
// xs: a weighted mean of all order statistics with Beta(q(n+1), (1-q)(n+1))
// weights. It varies less from sample to sample than a single order
// statistic, which matters where latencies of different request kinds meet.
// xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(float64(i)/float64(n), a, b)
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(x, a, b) / a
	}
	return 1 - front*betaFrac(1-x, b, a)/b
}

// betaFrac evaluates the incomplete beta function's continued fraction by
// the modified Lentz method.
func betaFrac(x, a, b float64) float64 {
	const eps, floor = 1e-13, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < floor {
			return floor
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the want-quantile of xs, lowered when the sample is too small
// for tailRank samples to lie beyond it: the highest quantile that still has
// tailRank samples above it is used instead, but never one below the
// median. It also returns the quantile it actually reported.
func tail(xs []float64, want float64) (value, q float64) {
	n := len(xs)
	if n == 0 {
		return 0, want
	}
	q = want
	if beyond := float64(n) * (1 - want); beyond < tailRank {
		q = math.Max(0.5, 1-float64(tailRank)/float64(n))
	}
	return quantile(xs, q), q
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
