// Package metrics collects the measurements the paper's evaluation reports:
// throughput, latency distributions, and per-component bandwidth utilization
// breakdowns at each replica.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"leopard/internal/transport"
	"leopard/internal/types"
)

// Bandwidth tracks sent/received bytes per message class for one replica.
// The zero value is ready to use.
type Bandwidth struct {
	Sent     [transport.NumClasses]int64
	Received [transport.NumClasses]int64
}

// AddSent records an outbound message of the given class and size.
func (b *Bandwidth) AddSent(c transport.Class, bytes int) { b.Sent[c] += int64(bytes) }

// AddReceived records an inbound message.
func (b *Bandwidth) AddReceived(c transport.Class, bytes int) { b.Received[c] += int64(bytes) }

// TotalSent returns all bytes sent.
func (b *Bandwidth) TotalSent() int64 {
	var t int64
	for _, v := range b.Sent {
		t += v
	}
	return t
}

// TotalReceived returns all bytes received.
func (b *Bandwidth) TotalReceived() int64 {
	var t int64
	for _, v := range b.Received {
		t += v
	}
	return t
}

// Total returns all bytes in both directions.
func (b *Bandwidth) Total() int64 { return b.TotalSent() + b.TotalReceived() }

// BreakdownRow is one line of a Table III-style utilization breakdown.
type BreakdownRow struct {
	Direction string // "send" or "receive"
	Class     string
	Bytes     int64
	Percent   float64 // of the replica's total (send+receive)
}

// Breakdown renders the per-class shares of this replica's total traffic.
func (b *Bandwidth) Breakdown() []BreakdownRow {
	total := b.Total()
	if total == 0 {
		return nil
	}
	var rows []BreakdownRow
	for c := 1; c < transport.NumClasses; c++ {
		if b.Sent[c] > 0 {
			rows = append(rows, BreakdownRow{
				Direction: "send", Class: transport.Class(c).String(),
				Bytes: b.Sent[c], Percent: 100 * float64(b.Sent[c]) / float64(total),
			})
		}
	}
	for c := 1; c < transport.NumClasses; c++ {
		if b.Received[c] > 0 {
			rows = append(rows, BreakdownRow{
				Direction: "receive", Class: transport.Class(c).String(),
				Bytes: b.Received[c], Percent: 100 * float64(b.Received[c]) / float64(total),
			})
		}
	}
	return rows
}

// FormatBreakdown renders rows as an aligned text table.
func FormatBreakdown(rows []BreakdownRow) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-11s %12d B %6.2f%%\n", r.Direction, r.Class, r.Bytes, r.Percent)
	}
	return sb.String()
}

// LatencySample is one request's confirmation latency.
type LatencySample = time.Duration

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

// Throughput converts a confirmed-request count over a duration into
// requests per second.
func Throughput(confirmed int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(confirmed) / elapsed.Seconds()
}

// Gbps converts bytes over a duration into gigabits per second.
func Gbps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e9 / elapsed.Seconds()
}

// Mbps converts bytes over a duration into megabits per second.
func Mbps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / elapsed.Seconds()
}

// StageTimer accumulates time spent per named pipeline stage, backing the
// paper's Table IV latency breakdown.
// The zero value is ready to use. Not safe for concurrent use.
type StageTimer struct {
	totals map[string]time.Duration
}

// Add accrues d to the named stage.
func (s *StageTimer) Add(stage string, d time.Duration) {
	if s.totals == nil {
		s.totals = make(map[string]time.Duration)
	}
	s.totals[stage] += d
}

// Total returns the sum over all stages.
func (s *StageTimer) Total() time.Duration {
	var t time.Duration
	for _, d := range s.totals {
		t += d
	}
	return t
}

// StageRow is one line of a latency breakdown.
type StageRow struct {
	Stage   string
	Total   time.Duration
	Percent float64
}

// Rows returns the per-stage shares sorted by stage name.
func (s *StageTimer) Rows() []StageRow {
	total := s.Total()
	names := make([]string, 0, len(s.totals))
	for n := range s.totals {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]StageRow, 0, len(names))
	for _, n := range names {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.totals[n]) / float64(total)
		}
		rows = append(rows, StageRow{Stage: n, Total: s.totals[n], Percent: pct})
	}
	return rows
}

// ReplicaStats bundles everything measured at one replica.
type ReplicaStats struct {
	ID        types.ReplicaID
	Bandwidth Bandwidth
	Confirmed int64 // requests confirmed at this replica
	Executed  int64
}
