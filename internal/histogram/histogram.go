// Package histogram provides per-dimension value histograms used by
// skeleton index construction (Section 4 of the paper): given an estimate
// of the input distribution in each dimension — either assumed or computed
// from a buffered sample ("distribution prediction") — the skeleton builder
// partitions each dimension at equi-depth quantiles so every pre-allocated
// region receives roughly the same number of tuples (Figure 6).
package histogram

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-width binned count histogram over [Lo, Hi].
type Histogram struct {
	Lo, Hi float64
	Bins   []float64 // mass per bin
	total  float64
}

// New creates a histogram over [lo, hi] with the given number of bins. The
// domain's width hi - lo must be finite.
func New(lo, hi float64, bins int) (*Histogram, error) {
	if hi <= lo {
		return nil, fmt.Errorf("histogram: empty domain [%g, %g]", lo, hi)
	}
	if math.IsInf(hi-lo, 0) {
		return nil, fmt.Errorf("histogram: domain [%g, %g] has infinite width", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("histogram: need at least 1 bin, got %d", bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]float64, bins)}, nil
}

// Uniform returns a histogram representing a uniform distribution over
// [lo, hi]; its quantiles are linear.
//
//seglint:allow nodepanic — Must-style constructor; panics only on an empty domain, which callers pass as validated configuration
func Uniform(lo, hi float64) *Histogram {
	h, err := New(lo, hi, 1)
	if err != nil {
		panic(err)
	}
	h.Bins[0] = 1
	h.total = 1
	return h
}

// FromSamples builds a histogram over [lo, hi] from observed values,
// clamping out-of-domain samples into the boundary bins.
func FromSamples(samples []float64, lo, hi float64, bins int) (*Histogram, error) {
	h, err := New(lo, hi, bins)
	if err != nil {
		return nil, err
	}
	for _, v := range samples {
		h.Add(v)
	}
	return h, nil
}

// Add records one observation with weight 1.
func (h *Histogram) Add(v float64) { h.AddWeighted(v, 1) }

// AddWeighted records an observation with the given mass. Out-of-domain
// values clamp to the boundary bins.
func (h *Histogram) AddWeighted(v, w float64) {
	i := h.binOf(v)
	h.Bins[i] += w
	h.total += w
}

// AddInterval spreads one unit of mass uniformly over the interval
// [lo, hi] (clamped to the domain). Point intervals count as Add.
func (h *Histogram) AddInterval(lo, hi float64) {
	if hi <= lo {
		h.Add(lo)
		return
	}
	if lo < h.Lo {
		lo = h.Lo
	}
	if hi > h.Hi {
		hi = h.Hi
	}
	if hi <= lo {
		h.Add(lo)
		return
	}
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	first, last := h.binOf(lo), h.binOf(hi)
	if first == last {
		h.Bins[first]++
		h.total++
		return
	}
	span := hi - lo
	for b := first; b <= last; b++ {
		bLo := h.Lo + float64(b)*width
		bHi := bLo + width
		if bLo < lo {
			bLo = lo
		}
		if bHi > hi {
			bHi = hi
		}
		if bHi > bLo {
			frac := (bHi - bLo) / span
			h.Bins[b] += frac
			h.total += frac
		}
	}
}

func (h *Histogram) binOf(v float64) int {
	if v <= h.Lo {
		return 0
	}
	if v >= h.Hi {
		return len(h.Bins) - 1
	}
	x := float64(len(h.Bins)) * (v - h.Lo)
	if math.IsInf(x, 0) {
		// A domain wider than MaxFloat64 / len(Bins): divide first.
		x = (v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins))
	} else {
		x /= h.Hi - h.Lo
	}
	i := int(x)
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	return i
}

// Total reports the accumulated mass.
func (h *Histogram) Total() float64 { return h.total }

// Quantile returns the value v such that approximately q of the mass lies
// below v, interpolating linearly within bins. Quantile(0) == Lo and
// Quantile(1) == Hi. With zero recorded mass the distribution is treated as
// uniform.
func (h *Histogram) Quantile(q float64) float64 {
	if q <= 0 {
		return h.Lo
	}
	if q >= 1 {
		return h.Hi
	}
	if h.total == 0 {
		return h.Lo + q*(h.Hi-h.Lo)
	}
	target := q * h.total
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	cum := 0.0
	for i, m := range h.Bins {
		if cum+m >= target {
			frac := 0.0
			if m > 0 {
				frac = (target - cum) / m
			}
			return h.Lo + (float64(i)+frac)*width
		}
		cum += m
	}
	return h.Hi
}

// Partition returns p+1 strictly increasing boundaries that split the
// domain into p equi-depth slices: boundary[i] = Quantile(i/p), with the
// ends pinned to the domain and degenerate slices widened minimally so every
// slice has positive width.
func (h *Histogram) Partition(p int) ([]float64, error) {
	if p < 1 {
		return nil, fmt.Errorf("histogram: partition count %d < 1", p)
	}
	b := make([]float64, p+1)
	b[0], b[p] = h.Lo, h.Hi
	for i := 1; i < p; i++ {
		b[i] = h.Quantile(float64(i) / float64(p))
	}
	// Enforce strict monotonicity: a heavily skewed histogram can emit
	// repeated quantiles; widen degenerate slices by distributing them
	// evenly within the surrounding gap.
	minGap := (h.Hi - h.Lo) / float64(p) * 1e-6
	for i := 1; i <= p; i++ {
		if b[i] <= b[i-1] {
			b[i] = b[i-1] + minGap
		}
	}
	if b[p] > h.Hi {
		// Renormalize the tail back into the domain.
		excess := b[p] - h.Hi
		for i := 1; i <= p; i++ {
			b[i] -= excess * float64(i) / float64(p)
		}
		b[p] = h.Hi
		sort.Float64s(b)
	}
	for i := 1; i <= p; i++ {
		if b[i] <= b[i-1] {
			return nil, fmt.Errorf("histogram: cannot carve %d positive-width slices out of [%g, %g]", p, h.Lo, h.Hi)
		}
	}
	return b, nil
}
