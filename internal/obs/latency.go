package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// LatencyRecorder accumulates latency samples.
// The zero value is ready to use. Not safe for concurrent use.
type LatencyRecorder struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *LatencyRecorder) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Mean returns the average latency, or 0 with no samples.
func (l *LatencyRecorder) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) by the nearest-rank
// method: the smallest sample with at least p% of the samples at or below
// it, i.e. index ceil(p/100*n)-1. (A floor here would systematically
// underestimate: p99 of 10 samples must be the 10th sample, not the 9th.)
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	// The 1e-9 slack keeps exact ranks (e.g. p50 of 10 → 5.0) from being
	// pushed up a rank by floating-point noise in p/100*n.
	idx := int(math.Ceil(p/100*float64(len(l.samples))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Histogram renders the samples as a log-scale latency histogram: one row
// per power-of-two bucket starting at 1ms, with a proportional bar and the
// sample count. Buckets with no samples between the first and last occupied
// bucket still print, so the shape of the distribution is readable.
func (l *LatencyRecorder) Histogram() string {
	if len(l.samples) == 0 {
		return "(no samples)\n"
	}
	const base = time.Millisecond
	bucket := func(d time.Duration) int {
		b := 0
		for limit := base; d >= limit && b < 62; limit *= 2 {
			b++
		}
		return b
	}
	counts := make(map[int]int)
	lo, hi := 63, 0
	for _, s := range l.samples {
		b := bucket(s)
		counts[b]++
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var sb strings.Builder
	for b := lo; b <= hi; b++ {
		var label string
		if b == 0 {
			label = fmt.Sprintf("       < %v", base)
		} else {
			label = fmt.Sprintf("%8v - %v", base<<(b-1), base<<b)
		}
		c := counts[b]
		bar := strings.Repeat("#", c*40/max)
		fmt.Fprintf(&sb, "%-22s %6d %s\n", label, c, bar)
	}
	return sb.String()
}
