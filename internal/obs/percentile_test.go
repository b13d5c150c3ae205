package obs

import (
	"math"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty p50 = %d, want 0", got)
	}
	var hn *Histogram
	if got := hn.Percentile(99); got != 0 {
		t.Fatalf("nil p99 = %d, want 0", got)
	}
}

func TestQuantileSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("q=%v = %d, want 42 (clamped to min==max)", q, got)
		}
	}
}

// Samples confined to one bucket: every quantile must stay inside the
// observed [min, max], not just the bucket's theoretical bounds.
func TestQuantileSingleBucket(t *testing.T) {
	var h Histogram
	// Bucket [64, 127]; observed range [100, 110].
	for v := int64(100); v <= 110; v++ {
		h.Observe(v)
	}
	p50 := h.Percentile(50)
	if p50 < 100 || p50 > 110 {
		t.Fatalf("p50 = %d, want within observed [100, 110]", p50)
	}
	if got := h.Percentile(0); got != 100 {
		t.Fatalf("p0 = %d, want clamp to min 100", got)
	}
	if got := h.Percentile(100); got != 110 {
		t.Fatalf("p100 = %d, want clamp to max 110", got)
	}
}

func TestQuantileInterpolatesAcrossBuckets(t *testing.T) {
	var h Histogram
	// 90 samples in bucket [1,1], 10 in bucket [1024, 2047].
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1500)
	}
	if got := h.Percentile(50); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	p99 := h.Percentile(99)
	if p99 < 1024 || p99 > 1500 {
		t.Fatalf("p99 = %d, want in [1024, 1500] (tail bucket, max-clamped)", p99)
	}
	if got := h.Percentile(90); got > 1500 && got >= 1 {
		t.Fatalf("p90 = %d out of range", got)
	}
}

// Saturated histogram: samples at the top of the int64 range must not
// overflow the interpolation arithmetic.
func TestQuantileSaturated(t *testing.T) {
	var h Histogram
	top := int64(math.MaxInt64)
	for i := 0; i < 100; i++ {
		h.Observe(top)
	}
	for _, p := range []float64{50, 90, 99} {
		if got := h.Percentile(p); got != top {
			t.Fatalf("p%v = %d, want MaxInt64", p, got)
		}
	}
	// Mixed with a low sample the high quantiles stay in the top bucket.
	h.Observe(1)
	if got := h.Percentile(99); got <= 0 || got > top {
		t.Fatalf("p99 = %d, want positive and <= MaxInt64", got)
	}
}

func TestQuantileUniformSpread(t *testing.T) {
	var h Histogram
	// 1..1000 uniformly: p50 should land near 500 (log2 buckets make this
	// approximate — accept the owning bucket's range).
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	p50 := h.Percentile(50)
	if p50 < 256 || p50 > 750 {
		t.Fatalf("p50 = %d, want roughly 500 (bucket-resolution)", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 900 || p99 > 1000 {
		t.Fatalf("p99 = %d, want near 990", p99)
	}
	if h.Quantile(-1) != 1 || h.Quantile(2) != 1000 {
		t.Fatal("out-of-range q not clamped")
	}
}

func TestQuantileNegativeSamples(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(-5)
	h.Observe(7)
	// Bucket 0 holds v <= 0; the estimator interpolates between the
	// observed min and the bucket's upper edge.
	if got := h.Percentile(25); got < -5 || got > 0 {
		t.Fatalf("p25 = %d, want within [-5, 0]", got)
	}
	if got := h.Percentile(100); got != 7 {
		t.Fatalf("p100 = %d, want 7", got)
	}
}
