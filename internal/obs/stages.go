package obs

import (
	"sort"
	"time"
)

// Stage reduction: collapse raw event traces into the paper's Table IV
// stage-latency breakdown. Each stage is the gap between two lifecycle
// events of the same object, taking the earliest observation of each side
// across all replicas of a run:
//
//	dissemination: datablock packed  → ready quorum      (per datablock)
//	notarization:  block proposed    → σ1 certificate    (per serial number)
//	confirmation:  σ1 certificate    → σ2 certificate    (per serial number)
//	execution:     σ2 certificate    → block executed    (per serial number)
//
// Durations are summed per stage; percentages are of the summed total. The
// computation only ever sums and min-reduces integers, so it is
// deterministic regardless of map iteration order.

const (
	StageDissemination = "dissemination (packed->ready)"
	StageNotarization  = "notarization (proposed->sigma1)"
	StageConfirmation  = "confirmation (sigma1->sigma2)"
	StageExecution     = "execution (sigma2->executed)"
)

// stagePair accumulates the earliest begin/end observation for one object.
type stagePair struct {
	begin, end time.Duration
	hasB, hasE bool
}

func (p *stagePair) observe(at time.Duration, isBegin bool) {
	if isBegin {
		if !p.hasB || at < p.begin {
			p.begin, p.hasB = at, true
		}
	} else {
		if !p.hasE || at < p.end {
			p.end, p.hasE = at, true
		}
	}
}

func (p *stagePair) gap() (time.Duration, bool) {
	if !p.hasB || !p.hasE || p.end < p.begin {
		return 0, false
	}
	return p.end - p.begin, true
}

// stageEdges maps each stage to its begin/end event kinds.
var stageEdges = []struct {
	name       string
	begin, end EventKind
}{
	{StageDissemination, EvDatablockPacked, EvDatablockReady},
	{StageNotarization, EvBlockProposed, EvSigma1Cert},
	{StageConfirmation, EvSigma1Cert, EvSigma2Cert},
	{StageExecution, EvSigma2Cert, EvBlockExecuted},
}

// StageBreakdown reduces the given runs to Table IV-style rows (sorted by
// stage name, percent of the summed total). Stages with no completed pairs
// are omitted; an empty input yields no rows.
func StageBreakdown(runs []*TraceSet) []StageRow {
	var timer StageTimer
	for _, run := range runs {
		for si := range stageEdges {
			pairs := make(map[uint64]*stagePair)
			observe := func(id uint64, at time.Duration, isBegin bool) {
				p := pairs[id]
				if p == nil {
					p = &stagePair{}
					pairs[id] = p
				}
				p.observe(at, isBegin)
			}
			for tid := 0; tid < run.Size(); tid++ {
				for _, e := range run.Tracer(tid).Events() {
					if e.Kind == stageEdges[si].begin {
						observe(e.ID, e.At, true)
					}
					if e.Kind == stageEdges[si].end {
						observe(e.ID, e.At, false)
					}
				}
			}
			for _, p := range pairs {
				if d, ok := p.gap(); ok {
					timer.Add(stageEdges[si].name, d)
				}
			}
		}
	}
	return timer.Rows()
}

// StageBreakdown reduces every collected run.
func (c *Collector) StageBreakdown() []StageRow { return StageBreakdown(c.Runs()) }

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
