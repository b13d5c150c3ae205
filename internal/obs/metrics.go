package obs

import (
	"encoding/json"
	"io"
	"math/bits"
)

// histBuckets is the bucket count: bucket 0 holds v <= 0, bucket i >= 1
// holds v in [2^(i-1), 2^i - 1]. 64 value buckets cover all of int64.
const histBuckets = 65

// Histogram is a log2-scale histogram of int64 samples (latencies in
// simulated nanoseconds), the value type the span profiler and the
// overload experiment take percentiles from. The zero value is empty and
// ready to use. It is not safe for concurrent use: its owner serializes
// (the profiler under its own lock).
type Histogram struct {
	counts   [histBuckets]uint64
	count    uint64
	min, max int64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the inclusive [lo, hi] value range of bucket i.
// Bucket 0 is (-inf, 0], reported as [0, 0].
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Snapshot is a point-in-time copy of the authoritative counters and
// gauges, filled at export by core.Manager.PublishMetrics,
// vm.System.PublishMetrics and Observer.PublishSelfMetrics from the
// structs that own them. Latencies are not metrics: spans record them.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
}

// NewSnapshot returns an empty snapshot ready to fill.
func NewSnapshot() Snapshot {
	return Snapshot{Counters: make(map[string]uint64), Gauges: make(map[string]int64)}
}

// WriteJSON writes the snapshot as indented JSON. Go sorts map keys when
// marshaling, so the output is deterministic for identical metric states.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
