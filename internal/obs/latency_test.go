package obs

import (
	"strings"
	"testing"
	"time"
)

func TestLatencyRecorder(t *testing.T) {
	var l LatencyRecorder
	if l.Mean() != 0 || l.Percentile(50) != 0 {
		t.Error("empty recorder must return zeros")
	}
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if got := l.Count(); got != 100 {
		t.Errorf("Count = %d", got)
	}
	if got, want := l.Mean(), 50500*time.Microsecond; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got := l.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("P50 = %v", got)
	}
	if got := l.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("P99 = %v", got)
	}
	if got := l.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("P100 = %v", got)
	}
	// Adding after a percentile query must re-sort: with the fresh 1µs
	// sample in place, P1 of 101 samples is nearest-rank ceil(1.01)=2, the
	// second-smallest sample (1ms). Without the re-sort the 1µs sample
	// would sit unsorted at the end and P1 would return 2ms.
	l.Add(time.Microsecond)
	if got := l.Percentile(1); got != time.Millisecond {
		t.Errorf("P1 after re-add = %v", got)
	}
	if got := l.Percentile(0.1); got != time.Microsecond {
		t.Errorf("P0.1 after re-add = %v", got)
	}
}

// TestPercentileNearestRank pins the nearest-rank definition over small
// sample counts, where the old floor-based index visibly underestimated
// (e.g. p99 of 10 samples returned the 9th sample instead of the 10th).
func TestPercentileNearestRank(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		n    int // samples are 1ms..n*1ms
		p    float64
		want time.Duration
	}{
		{n: 1, p: 50, want: ms(1)},
		{n: 1, p: 99, want: ms(1)},
		{n: 2, p: 50, want: ms(1)},   // ceil(1.0) = rank 1
		{n: 2, p: 51, want: ms(2)},   // ceil(1.02) = rank 2
		{n: 3, p: 99, want: ms(3)},   // ceil(2.97) = rank 3
		{n: 4, p: 25, want: ms(1)},   // ceil(1.0) = rank 1
		{n: 4, p: 26, want: ms(2)},   // ceil(1.04) = rank 2
		{n: 10, p: 99, want: ms(10)}, // the motivating case: floor gave rank 9
		{n: 10, p: 90, want: ms(9)},
		{n: 10, p: 91, want: ms(10)},
		{n: 100, p: 99, want: ms(99)},
		{n: 100, p: 99.5, want: ms(100)},
		{n: 100, p: 100, want: ms(100)},
		{n: 7, p: 50, want: ms(4)}, // ceil(3.5) = rank 4 (the median)
	}
	for _, c := range cases {
		var l LatencyRecorder
		for i := 1; i <= c.n; i++ {
			l.Add(ms(i))
		}
		if got := l.Percentile(c.p); got != c.want {
			t.Errorf("n=%d p=%v: got %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var empty LatencyRecorder
	if got := empty.Histogram(); got != "(no samples)\n" {
		t.Errorf("empty histogram = %q", got)
	}
	// All samples in a single bucket: exactly one row, full-width bar.
	var single LatencyRecorder
	single.Add(100 * time.Microsecond)
	single.Add(500 * time.Microsecond)
	out := single.Histogram()
	if strings.Count(out, "\n") != 1 {
		t.Errorf("single-bucket histogram should have 1 row:\n%s", out)
	}
	if !strings.Contains(out, "< 1ms") || !strings.Contains(out, "2 ########################################") {
		t.Errorf("single-bucket histogram content:\n%s", out)
	}
	// A gap between occupied buckets still prints the empty bucket rows.
	var gapped LatencyRecorder
	gapped.Add(500 * time.Microsecond) // bucket 0
	gapped.Add(3 * time.Millisecond)   // bucket 2 (2-4ms)
	out = gapped.Histogram()
	if strings.Count(out, "\n") != 3 {
		t.Errorf("gapped histogram should print 3 rows including the empty one:\n%s", out)
	}
}
