// Package obs is the observability layer: a deterministic structured
// event-trace facility, a unified metrics registry, and the measurement
// types the evaluation reports (latency distributions, stage breakdowns).
//
// The trace side records typed protocol lifecycle events (request admitted →
// packed → disseminated → σ1-cert → σ2-cert → executed → replied, plus
// view-change, retrieval, state-transfer and credit park/evict spans) into a
// bounded per-replica ring buffer. Every event is timestamped from the
// caller-supplied clock — the package never reads wall-clock time — so
// identically-seeded simnet runs produce byte-identical traces. Traces
// export as Chrome trace_event JSON (chrome.go) and reduce to the paper's
// Table IV stage-latency breakdown (stages.go, via StageTimer).
//
// The metrics side (registry.go, bind.go) is a dependency-free registry of
// counters and gauges with stable names, zero-alloc hot-path increments,
// Prometheus text exposition and a JSON snapshot. LatencyRecorder
// (latency.go) is the one latency type: the harness, the clients scenario
// and leopard-client all report through it.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventKind identifies one lifecycle event type.
type EventKind uint8

// The event catalog. ID/Aux semantics per kind are documented inline; "hash"
// means the first 8 bytes of a digest, big-endian.
const (
	EvNone             EventKind = iota
	EvRequestAdmitted            // id=client, aux=client seq
	EvDatablockPacked            // id=datablock hash, aux=requests packed
	EvDatablockReady             // id=datablock hash, aux=0 (ready quorum reached)
	EvBlockProposed              // id=seq, aux=datablock count (own proposal or accepted proposal)
	EvSigma1Cert                 // id=seq, aux=0 (first-round threshold proof applied)
	EvSigma2Cert                 // id=seq, aux=0 (block confirmed)
	EvBlockExecuted              // id=seq, aux=requests executed
	EvReplySent                  // id=client, aux=client seq
	EvViewChangeStart            // id=target view
	EvViewChangeDone             // id=entered view
	EvRetrievalStart             // id=datablock hash, aux=0
	EvRetrievalDone              // id=datablock hash, aux=1 if recovered via erasure decode, 2 via full block
	EvStateReqSent               // id=from seq, aux=width
	EvStateApplied               // id=seq, aux=0 (transferred record applied)
	EvCheckpointStable           // id=seq
	EvCreditParked               // id=peer, aux=queued bytes
	EvCreditEvicted              // id=peer, aux=evicted bytes
	numEventKinds
)

var kindNames = [numEventKinds]string{
	EvNone:             "none",
	EvRequestAdmitted:  "request_admitted",
	EvDatablockPacked:  "datablock_packed",
	EvDatablockReady:   "datablock_ready",
	EvBlockProposed:    "block_proposed",
	EvSigma1Cert:       "sigma1_cert",
	EvSigma2Cert:       "sigma2_cert",
	EvBlockExecuted:    "block_executed",
	EvReplySent:        "reply_sent",
	EvViewChangeStart:  "view_change_start",
	EvViewChangeDone:   "view_change_done",
	EvRetrievalStart:   "retrieval_start",
	EvRetrievalDone:    "retrieval_done",
	EvStateReqSent:     "state_req_sent",
	EvStateApplied:     "state_applied",
	EvCheckpointStable: "checkpoint_stable",
	EvCreditParked:     "credit_parked",
	EvCreditEvicted:    "credit_evicted",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded lifecycle event. At is the caller-supplied clock
// reading (virtual time under simnet, runtime-relative monotonic time under
// the TCP runtime).
type Event struct {
	At   time.Duration
	Kind EventKind
	View uint64
	ID   uint64
	Aux  int64
}

// DefaultRingCap is the per-replica event capacity used when callers don't
// choose one.
const DefaultRingCap = 4096

// Tracer is a bounded ring buffer of events for one replica. A nil *Tracer
// is valid and ignores every call, so emit sites need no guards. Emit is
// allocation-free after construction and safe for concurrent use (the TCP
// transport emits from multiple goroutines; under simnet it is simply
// uncontended).
type Tracer struct {
	mu       sync.Mutex
	buf      []Event
	next     int
	total    uint64
	counters []*Counter // optional per-kind mirrors, indexed by EventKind
}

// NewTracer returns a tracer retaining the last capacity events
// (DefaultRingCap if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// MirrorCounts registers one counter per event kind in reg, named
// prefix_events_total{kind="..."}, and increments it on every Emit. The
// counters are plain registry counters: they survive ring-buffer wraparound
// and make the trace stream visible on /metrics.
func (t *Tracer) MirrorCounts(reg *Registry, prefix string) {
	if t == nil || reg == nil {
		return
	}
	counters := make([]*Counter, numEventKinds)
	for k := EventKind(1); k < numEventKinds; k++ {
		counters[k] = reg.Counter(
			fmt.Sprintf("%s_events_total{kind=%q}", prefix, k.String()),
			"lifecycle trace events by kind")
	}
	t.mu.Lock()
	t.counters = counters
	t.mu.Unlock()
}

// Emit records one event at the given clock reading. Safe on a nil tracer.
func (t *Tracer) Emit(now time.Duration, kind EventKind, view, id uint64, aux int64) {
	if t == nil {
		return
	}
	e := Event{At: now, Kind: kind, View: view, ID: id, Aux: aux}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
	}
	t.next++
	if t.next == cap(t.buf) {
		t.next = 0
	}
	t.total++
	counters := t.counters
	t.mu.Unlock()
	if counters != nil && int(kind) < len(counters) && counters[kind] != nil {
		counters[kind].Inc()
	}
}

// Total returns the number of events emitted over the tracer's lifetime
// (including any that have rotated out of the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Last returns up to n most-recent events in emission order.
func (t *Tracer) Last(n int) []Event {
	evs := t.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// TraceSet is the per-replica tracer collection for one run (one cluster).
// A nil *TraceSet is valid: Tracer returns nil, which emit sites accept.
type TraceSet struct {
	Label   string
	tracers []*Tracer
}

// NewTraceSet builds n tracers of the given ring capacity.
func NewTraceSet(label string, n, capacity int) *TraceSet {
	ts := &TraceSet{Label: label, tracers: make([]*Tracer, n)}
	for i := range ts.tracers {
		ts.tracers[i] = NewTracer(capacity)
	}
	return ts
}

// Size returns the number of replicas traced.
func (ts *TraceSet) Size() int {
	if ts == nil {
		return 0
	}
	return len(ts.tracers)
}

// Tracer returns replica i's tracer, or nil when ts is nil or i is out of
// range.
func (ts *TraceSet) Tracer(i int) *Tracer {
	if ts == nil || i < 0 || i >= len(ts.tracers) {
		return nil
	}
	return ts.tracers[i]
}

// FormatEvent renders one event as a single text line.
func FormatEvent(e Event) string {
	return fmt.Sprintf("t=%-12v view=%-3d %-18s id=%#016x aux=%d",
		e.At, e.View, e.Kind.String(), e.ID, e.Aux)
}

// DumpLast renders the last n events of every replica as text — the
// post-mortem body the invariant checker attaches to a violation.
func (ts *TraceSet) DumpLast(n int) string {
	if ts == nil {
		return ""
	}
	var sb strings.Builder
	for i, t := range ts.tracers {
		evs := t.Last(n)
		fmt.Fprintf(&sb, "replica %d: %d trace events total, last %d:\n", i, t.Total(), len(evs))
		for _, e := range evs {
			fmt.Fprintf(&sb, "  r%d %s\n", i, FormatEvent(e))
		}
	}
	return sb.String()
}

// Collector accumulates the TraceSets of every traced run in one process
// (e.g. each chaos plan at each scale), for a single combined export.
type Collector struct {
	mu      sync.Mutex
	ringCap int
	runs    []*TraceSet
}

// NewCollector returns a collector whose runs use the given per-replica
// ring capacity (DefaultRingCap if <= 0).
func NewCollector(ringCap int) *Collector {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Collector{ringCap: ringCap}
}

// NewRun registers and returns a TraceSet for a run of n replicas.
func (c *Collector) NewRun(label string, n int) *TraceSet {
	ts := NewTraceSet(label, n, c.ringCap)
	c.mu.Lock()
	c.runs = append(c.runs, ts)
	c.mu.Unlock()
	return ts
}

// Runs returns the registered trace sets in creation order.
func (c *Collector) Runs() []*TraceSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*TraceSet(nil), c.runs...)
}
