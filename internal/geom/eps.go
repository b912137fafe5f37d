package geom

import "math"

// Eps is the tolerance used by the package's approximate float comparisons.
// Coordinates in segment indexes come from data domains, histogram quantile
// cuts, and midpoint splits; 1e-9 absorbs the rounding those operations
// introduce while staying far below any meaningful geometric distance.
const Eps = 1e-9

// Feq reports whether a and b are equal within Eps, scaled by magnitude:
// |a - b| <= Eps * max(1, |a|, |b|). Coordinates that different arithmetic
// paths produce compare with it, not with raw == / !=.
func Feq(a, b float64) bool {
	if a == b { // the exact fast path; it also handles ±Inf
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // distinct infinities (or an infinity vs a finite value)
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= Eps*scale
}

// Fzero reports whether x is zero within the absolute tolerance Eps.
func Fzero(x float64) bool {
	return math.Abs(x) <= Eps
}
