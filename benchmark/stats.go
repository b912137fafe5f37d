package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed-size log-linear latency histogram (64 sub-buckets per
// power of two, so a bucket is at most 1.6 % wide and quantiles, which
// interpolate inside the bucket, land well under 1 % of the true value).
// It replaces per-sample slices so a phase of millions of ops costs 9 KiB
// per (goroutine, op class) instead of tens of MiB — sample buffers would
// otherwise dominate heap_mb.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 64
	histOctaves = 36 // values up to 2^41 ns (~36 min)
	histBuckets = histSub * (histOctaves + 1)
)

// bucketOf maps a nanosecond value to its bucket. Values below histSub
// are exact; above, the top seven bits select the bucket.
func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 7
	b := (e+1)*histSub + int(uint64(ns)>>uint(e)) - histSub
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketBounds returns the inclusive lower bound and the width of bucket b.
func bucketBounds(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	e := uint(b/histSub - 1)
	m := uint64(b%histSub + histSub)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(d.Nanoseconds())]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, width := bucketBounds(b)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return lo + width
}

// tailQuantiles are the candidate tail percentiles, ascending.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// supported reports whether a sample of n values has at least ten samples
// beyond the q-quantile — the rule for which tail may be reported.
func supported(n uint64, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-6 // 1-0.9 is not quite 0.1 in binary
}

// tailQuantile returns the highest candidate percentile that n samples
// support (0 when even the median has fewer than ten samples beyond it).
func tailQuantile(n uint64) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// median returns the middle value (mean of the middle two for even
// lengths); 0 for an empty slice. It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) (the default "exclusive" method) computes
// them, which is what the acceptance procedure uses for spreads. It needs
// at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// lat collects the latencies of one goroutine's timed phase, one
// histogram per op class, over the whole phase.
type lat []hist
