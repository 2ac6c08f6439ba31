package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span recording for the traced run. Every span is recorded from this
// program's own files, around a call into one layer of the replica: the
// transport.Node decorator opens a parent span per Start/Deliver/Tick and
// per injected closure, and the suite, verifier, store, codec, executor and
// reply-sink decorators open child spans inside it. A replica's node runs
// on one goroutine (the runtime's apply loop), so parent and children nest
// on one stack and a span's self time is its duration minus the time its
// children cover. Spans stay in memory and are reduced (and, with
// -trace-out, written as Chrome trace_event JSON) after the run.

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

// maxClasses bounds the message classes a deliver span is keyed by; the
// cluster file maps transport.Class values onto it and checks the bound.
const maxClasses = 16

const (
	kStart spanKind = iota
	kTick
	kInjectSubmit // load generator's SubmitSigned closure
	kInjectOther  // snapshot and sampling closures
	kClientVerify
	kSign
	kVerifyShare
	kCombine
	kVerifyProof
	kEncode
	kDecode // recorded off the apply loop (transport read loops)
	kAppend
	kAppendVote
	kAppendNote
	kStoreOther
	kExecute
	kReply
	kDeliver // kDeliver+class, up to maxClasses
	numKinds = kDeliver + maxClasses
)

// kindNames labels spans in the Chrome trace; deliver kinds are filled in
// by the cluster file from the program's own class names.
var kindNames = [numKinds]string{
	kStart:        "node.start",
	kTick:         "node.tick",
	kInjectSubmit: "inject.submit",
	kInjectOther:  "inject.other",
	kClientVerify: "client.verify",
	kSign:         "crypto.sign",
	kVerifyShare:  "crypto.verify_share",
	kCombine:      "crypto.combine",
	kVerifyProof:  "crypto.verify_proof",
	kEncode:       "codec.encode",
	kDecode:       "codec.decode",
	kAppend:       "storage.append",
	kAppendVote:   "storage.append_vote",
	kAppendNote:   "storage.append_note",
	kStoreOther:   "storage.other",
	kExecute:      "app.execute",
	kReply:        "reply.sink",
}

// isParent reports whether spans of kind k are opened by the node
// decorator (they cover everything the apply loop does for one event).
func (k spanKind) isParent() bool {
	return k == kStart || k == kTick || k == kInjectSubmit || k == kInjectOther || k >= kDeliver
}

// span is one closed span. Times are nanoseconds; start is relative to the
// recording's epoch. Durations saturate at about 4.29 s.
type span struct {
	start int64
	dur   uint32
	self  uint32
	kind  spanKind
}

func clampNs(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ns)
}

// spanStore holds spans in fixed-size chunks so that recording never
// copies what it already holds.
type spanStore struct {
	chunks [][]span
	n      int
}

const spanChunk = 1 << 15

func (s *spanStore) add(sp span) {
	if len(s.chunks) == 0 || len(s.chunks[len(s.chunks)-1]) == spanChunk {
		s.chunks = append(s.chunks, make([]span, 0, spanChunk))
	}
	last := len(s.chunks) - 1
	s.chunks[last] = append(s.chunks[last], sp)
	s.n++
}

func (s *spanStore) each(fn func(span)) {
	for _, c := range s.chunks {
		for _, sp := range c {
			fn(sp)
		}
	}
}

// loopRecorder records the nested spans of one replica's apply loop. It is
// used from that goroutine only.
type loopRecorder struct {
	epoch time.Time
	spans spanStore
	depth int
	stack [16]struct {
		kind     spanKind
		start    int64
		children int64
	}
	// waits holds (closure start, wait) pairs for injected closures: the
	// time a closure spent queued behind the apply loop's other events.
	waits []injectWait
}

type injectWait struct{ at, wait int64 }

func (r *loopRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span of kind k as a child of the innermost open span.
func (r *loopRecorder) begin(k spanKind) { r.beginAt(k, r.now()) }

// end closes the innermost open span.
func (r *loopRecorder) end() { r.endAt(r.now()) }

func (r *loopRecorder) beginAt(k spanKind, t int64) {
	if r.depth == len(r.stack) {
		panic("leopard-bench: span stack overflow")
	}
	f := &r.stack[r.depth]
	f.kind, f.start, f.children = k, t, 0
	r.depth++
}

func (r *loopRecorder) endAt(t int64) {
	r.depth--
	f := &r.stack[r.depth]
	dur := t - f.start
	if r.depth > 0 {
		r.stack[r.depth-1].children += dur
	}
	r.spans.add(span{start: f.start, dur: clampNs(dur), self: clampNs(dur - f.children), kind: f.kind})
}

// noteWait records how long an injected closure waited for the apply loop.
func (r *loopRecorder) noteWait(injected time.Time) {
	now := r.now()
	r.waits = append(r.waits, injectWait{at: now, wait: now - int64(injected.Sub(r.epoch))})
}

// sideRecorder records flat spans from goroutines other than the apply
// loop (the transport's read loops decode frames there).
type sideRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans spanStore
}

func (r *sideRecorder) record(k spanKind, start time.Time, dur time.Duration) {
	d := clampNs(int64(dur))
	r.mu.Lock()
	r.spans.add(span{start: int64(start.Sub(r.epoch)), dur: d, self: d, kind: k})
	r.mu.Unlock()
}

// recording is the span memory of one cluster run: one loop recorder and
// one side recorder per replica, sharing an epoch.
type recording struct {
	epoch time.Time
	loops []*loopRecorder
	sides []*sideRecorder
}

func newRecording(n int) *recording {
	rec := &recording{epoch: time.Now()}
	for i := 0; i < n; i++ {
		rec.loops = append(rec.loops, &loopRecorder{epoch: rec.epoch})
		rec.sides = append(rec.sides, &sideRecorder{epoch: rec.epoch})
	}
	return rec
}

// kindTotals sums the spans of one kind. dur and self are as recorded:
// wall-clock time, which on a machine with more busy apply loops than
// processors includes the time a goroutine spent preempted inside an open
// span (the scheduler takes the processor away every 10 ms, wherever the
// goroutine happens to be). cpuDur and cpuSelf estimate the processor time
// instead: each span counts for at most winsorFactor times the 90th
// percentile of its kind, and never less than winsorFloor, which cuts those
// waits (a millisecond and more) and little else.
type kindTotals struct {
	count   int64
	dur     int64 // ns
	self    int64 // ns
	cpuDur  int64 // ns, winsorized
	cpuSelf int64 // ns, winsorized
}

const (
	winsorFactor = 8
	winsorFloor  = 1e6 // ns: a cap is never below this
)

// winsorCap returns the cap for a kind whose values (ns) are given.
func winsorCap(values []uint32) int64 {
	if len(values) == 0 {
		return 0
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	c := int64(values[(len(values)-1)*9/10]) * winsorFactor
	if c < winsorFloor {
		c = winsorFloor
	}
	return c
}

// reduce sums, per replica and kind, the spans that started in [from, to)
// nanoseconds after the epoch. Call it only after the cluster has stopped.
func (rec *recording) reduce(from, to int64) [][numKinds]kindTotals {
	inWindow := func(fn func(replica int, sp span)) {
		for i := range rec.loops {
			visit := func(sp span) {
				if sp.start >= from && sp.start < to {
					fn(i, sp)
				}
			}
			rec.loops[i].spans.each(visit)
			rec.sides[i].spans.each(visit)
		}
	}
	var durs, selfs [numKinds][]uint32
	inWindow(func(_ int, sp span) {
		durs[sp.kind] = append(durs[sp.kind], sp.dur)
		selfs[sp.kind] = append(selfs[sp.kind], sp.self)
	})
	var durCap, selfCap [numKinds]int64
	for k := range durs {
		durCap[k], selfCap[k] = winsorCap(durs[k]), winsorCap(selfs[k])
	}
	out := make([][numKinds]kindTotals, len(rec.loops))
	inWindow(func(i int, sp span) {
		t := &out[i][sp.kind]
		t.count++
		t.dur += int64(sp.dur)
		t.self += int64(sp.self)
		t.cpuDur += min(int64(sp.dur), durCap[sp.kind])
		t.cpuSelf += min(int64(sp.self), selfCap[sp.kind])
	})
	return out
}

// durations returns the durations (ns) of every span of kind k that
// started in [from, to), across replicas.
func (rec *recording) durations(k spanKind, from, to int64) []float64 {
	var out []float64
	for _, l := range rec.loops {
		l.spans.each(func(sp span) {
			if sp.kind == k && sp.start >= from && sp.start < to {
				out = append(out, float64(sp.dur))
			}
		})
	}
	return out
}

// injectWaits returns the waits (ns) of closures that started in [from, to).
func (rec *recording) injectWaits(from, to int64) []float64 {
	var out []float64
	for _, l := range rec.loops {
		for _, w := range l.waits {
			if w.at >= from && w.at < to {
				out = append(out, float64(w.wait))
			}
		}
	}
	return out
}

// spanCount returns the number of spans held.
func (rec *recording) spanCount() int {
	n := 0
	for i := range rec.loops {
		n += rec.loops[i].spans.n + rec.sides[i].spans.n
	}
	return n
}

// writeChrome writes every span as a Chrome trace_event complete event:
// one process per replica, thread 0 the apply loop, thread 1 the read loops.
func (rec *recording) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	emit := func(pid, tid int, sp span) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d.%03d,\"dur\":%d.%03d}",
			kindNames[sp.kind], pid, tid, sp.start/1000, sp.start%1000, sp.dur/1000, sp.dur%1000)
	}
	for i := range rec.loops {
		rec.loops[i].spans.each(func(sp span) { emit(i, 0, sp) })
		rec.sides[i].spans.each(func(sp span) { emit(i, 1, sp) })
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
