package histogram

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, 4); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := New(0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := New(5, 1, 4); err == nil {
		t.Error("inverted domain accepted")
	}
	if _, err := New(-math.MaxFloat64, math.MaxFloat64, 100); err == nil {
		t.Error("domain of infinite width accepted")
	}
}

// TestWideDomain bins values of a domain whose width times the bin count
// overflows.
func TestWideDomain(t *testing.T) {
	h, err := New(-1e307, 1e307, 100)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(5e306)
	if h.Bins[75] != 1 {
		t.Fatalf("5e306 not in bin 75 of [-1e307, 1e307]: %v", h.Bins)
	}
	h.AddInterval(-1e307, 1e307)
	if got := h.Total(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Total = %g after one value and one interval, want 2", got)
	}
}

func TestUniformQuantiles(t *testing.T) {
	h := Uniform(0, 100)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := h.Quantile(q); math.Abs(got-q*100) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", q, got, q*100)
		}
	}
}

func TestEmptyHistogramFallsBackToUniform(t *testing.T) {
	h, _ := New(0, 10, 8)
	if got := h.Quantile(0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("empty Quantile(0.5) = %g, want 5", got)
	}
}

func TestQuantileOnSkewedData(t *testing.T) {
	h, _ := New(0, 100, 100)
	// 90% of the mass at the low end, 10% at the high end.
	for i := 0; i < 900; i++ {
		h.Add(rand.New(rand.NewSource(int64(i))).Float64() * 10)
	}
	for i := 0; i < 100; i++ {
		h.Add(90 + rand.New(rand.NewSource(int64(i))).Float64()*10)
	}
	med := h.Quantile(0.5)
	if med > 10 {
		t.Errorf("median of skewed data = %g, want <= 10", med)
	}
	q95 := h.Quantile(0.95)
	if q95 < 80 {
		t.Errorf("q95 of skewed data = %g, want >= 80", q95)
	}
	// Quantiles are monotone.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestPartitionEquiDepth(t *testing.T) {
	h, _ := New(0, 1000, 200)
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 10000)
	for i := range vals {
		// Exponential-ish skew truncated to the domain.
		v := rng.ExpFloat64() * 150
		if v > 1000 {
			v = 1000
		}
		vals[i] = v
		h.Add(v)
	}
	const p = 10
	b, err := h.Partition(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p+1 || b[0] != 0 || b[p] != 1000 {
		t.Fatalf("bad boundaries: %v", b)
	}
	// Each slice should hold roughly 1/p of the samples (binning error
	// allows generous slack).
	sort.Float64s(vals)
	for i := 0; i < p; i++ {
		lo, hi := b[i], b[i+1]
		count := 0
		for _, v := range vals {
			if v >= lo && v < hi {
				count++
			}
		}
		if count < 500 || count > 2000 {
			t.Errorf("slice %d [%g,%g) holds %d of 10000 samples, want ~1000", i, lo, hi, count)
		}
	}
}

func TestPartitionDegenerateMass(t *testing.T) {
	h, _ := New(0, 100, 10)
	// All mass in one point: quantiles collapse; Partition must still
	// return strictly increasing boundaries.
	for i := 0; i < 1000; i++ {
		h.Add(50)
	}
	b, err := h.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("boundaries not strictly increasing: %v", b)
		}
	}
	if b[0] != 0 || b[len(b)-1] != 100 {
		t.Fatalf("ends not pinned: %v", b)
	}
}

func TestAddIntervalSpreadsMass(t *testing.T) {
	h, _ := New(0, 100, 10)
	h.AddInterval(0, 100) // uniform mass across all bins
	for i, m := range h.Bins {
		if math.Abs(m-0.1) > 1e-9 {
			t.Errorf("bin %d mass = %g, want 0.1", i, m)
		}
	}
	if math.Abs(h.Total()-1) > 1e-9 {
		t.Errorf("total = %g, want 1", h.Total())
	}
	h2, _ := New(0, 100, 10)
	h2.AddInterval(42, 42) // degenerate interval = point add
	if h2.Bins[4] != 1 {
		t.Errorf("point interval mass = %v", h2.Bins)
	}
	// Out-of-domain interval is clamped, not dropped.
	h3, _ := New(0, 100, 10)
	h3.AddInterval(-50, 150)
	if h3.Total() == 0 {
		t.Error("clamped interval lost all mass")
	}
}

func TestClampOutOfDomain(t *testing.T) {
	h, _ := New(0, 10, 5)
	h.Add(-100)
	h.Add(100)
	if h.Bins[0] != 1 || h.Bins[4] != 1 {
		t.Errorf("out-of-domain adds not clamped: %v", h.Bins)
	}
}

func TestPropertyPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		h, _ := New(0, 1000, 50)
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Add(rng.Float64() * 1000)
		}
		p := rng.Intn(20) + 1
		b, err := h.Partition(p)
		if err != nil {
			return false
		}
		if len(b) != p+1 || b[0] != 0 || b[p] != 1000 {
			return false
		}
		for i := 1; i <= p; i++ {
			if b[i] <= b[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
