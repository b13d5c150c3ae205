package obs

// Percentile estimation for the log2 histograms. A log2 bucket only bounds
// a sample to [2^(i-1), 2^i - 1], so exact quantiles are unrecoverable; the
// estimator linearly interpolates the target rank's position within its
// bucket — the standard trade the profiler accepts for O(1) memory. The
// result is always clamped to the histogram's observed [min, max], which
// makes single-sample and single-bucket histograms exact at the extremes.

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) of the
// samples. Returns 0 for an empty or nil histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	// The extremes are known exactly; only interior quantiles estimate.
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Target rank in [1, count] (nearest-rank, then interpolated within
	// the bucket that holds it).
	target := q * float64(h.count)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		n := float64(c)
		if cum+n >= target {
			// frac in [0, 1): how far into this bucket the rank falls.
			frac := (target - cum - 1) / n
			if frac < 0 {
				frac = 0
			}
			blo, bhi := BucketBounds(i)
			lo, hi := float64(blo), float64(bhi)
			// Bucket 0 reports [0, 0] but holds every v <= 0; use the
			// observed minimum as its lower edge.
			if i == 0 && h.min < 0 {
				lo = float64(h.min)
			}
			v := lo + frac*(hi-lo)
			// Clamp in float space first: near MaxInt64 the int64
			// conversion of v+0.5 could overflow.
			if v >= float64(h.max) {
				return h.max
			}
			if v <= float64(h.min) {
				return h.min
			}
			return clampInt64(int64(v+0.5), h.min, h.max)
		}
		cum += n
	}
	// Rounding slack: the rank fell off the end; return the max.
	return h.max
}

// Percentile is Quantile with p expressed in percent (50, 90, 99).
// Safe on nil (returns 0).
func (h *Histogram) Percentile(p float64) int64 {
	return h.Quantile(p / 100)
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
