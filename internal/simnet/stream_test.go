package simnet

import (
	"testing"
	"time"

	"leopard/internal/transport"
)

// streamCfg returns a network configuration with reasoning-friendly
// numbers: 1 MB/s pipes (1 KB ≈ 1 ms), small chunks and an
// explicit window.
func streamCfg(window int64) Config {
	return Config{
		EgressBps:  8e6, // 1 MB/s
		IngressBps: 8e6,
		Latency:    0,
		Stream: transport.StreamConfig{
			ChunkSize:       1000,
			StreamThreshold: 1000,
			CreditWindow:    window,
			ParkBudget:      1 << 20,
			MaxStreams:      4,
		},
	}
}

// TestCreditFlowDelivers: a message far larger than the credit window
// still arrives intact — the window parks the flow, grants resume it, and
// the chunks reassemble into exactly one delivery.
func TestCreditFlowDelivers(t *testing.T) {
	cfg := streamCfg(2000)
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{transport.Unicast(1, &testMsg{size: 50000, tag: 7})}
	net.Start()
	net.Run(time.Second)
	if len(nodes[1].got) != 1 || nodes[1].got[0] != 7 {
		t.Fatalf("delivered %v, want exactly [7]", nodes[1].got)
	}
	if drops := net.TotalBulkDrops(); drops != 0 {
		t.Fatalf("credit flow dropped %d frames", drops)
	}
	// The receiver granted credits on the way: ClassMisc traffic flowed
	// back from 1 to 0.
	if got := net.Stats(1).Sent[transport.ClassMisc]; got == 0 {
		t.Fatal("no credit grants accounted")
	}
	st := net.StreamStats(0)
	if st.QueuedBytes != 0 || st.StreamsActive != 0 {
		t.Fatalf("flow not drained: %+v", st)
	}
	if st.PeakQueuedBytes == 0 {
		t.Fatal("peak queued bytes never recorded")
	}
}

// TestCreditWindowParksFlow pins the park/resume cycle through timing:
// with 10 ms of one-way latency, a window-limited flow moves one window
// per grant round trip, so halving the window roughly doubles transfer
// time. A bandwidth-limited flow (huge window) finishes in ~transfer
// time + one latency.
func TestCreditWindowParksFlow(t *testing.T) {
	transfer := func(window int64) time.Duration {
		cfg := streamCfg(window)
		cfg.Latency = 10 * time.Millisecond
		net, nodes := newTestNet(t, cfg, 2)
		nodes[0].onStart = []transport.Envelope{transport.Unicast(1, &testMsg{size: 40000, tag: 1})}
		net.Start()
		net.Run(10 * time.Second)
		if len(nodes[1].got) != 1 {
			t.Fatalf("window %d: delivered %d messages", window, len(nodes[1].got))
		}
		return nodes[1].gotAt[0]
	}
	wide := transfer(1 << 20)  // bandwidth-limited: ~40ms wire + 10ms latency
	narrow := transfer(4000)   // ~10 park/resume round trips
	narrower := transfer(2000) // ~20 round trips
	if wide > 100*time.Millisecond {
		t.Fatalf("wide window transfer took %v, want bandwidth-limited ~50ms", wide)
	}
	if narrow < 2*wide {
		t.Fatalf("narrow window %v not slower than wide %v: flow never parked", narrow, wide)
	}
	if narrower < narrow+(narrow-wide)/2 {
		t.Fatalf("halving the window %v -> %v did not add park round trips", narrow, narrower)
	}
}

// TestParkedAndEvictedBytesAreNotSent is the slow-peer eviction path and
// its accounting: a receiver that crashes mid-stream neither consumes nor
// grants, the park budget caps the sender's backlog by evicting the oldest
// unstarted streams, and after the receiver comes back the surviving
// streams deliver. Bandwidth.Sent counts what was booked on the wire, chunk
// by chunk — never bytes still parked, never an evicted frame.
func TestParkedAndEvictedBytesAreNotSent(t *testing.T) {
	cfg := streamCfg(1000)
	cfg.Stream.ParkBudget = 10000
	net, nodes := newTestNet(t, cfg, 2)
	net.Start()
	net.ScheduleCall(time.Millisecond, func(now time.Duration) {
		// The first stream starts while the receiver is up: one window
		// (1000 of its 3000 bytes) is booked, then it parks.
		net.dispatch(0, transport.Unicast(1, &testMsg{size: 3000, tag: 10}))
		net.Crash(1)
		for i := 1; i < 6; i++ {
			net.dispatch(0, transport.Unicast(1, &testMsg{size: 3000, tag: 10 + i}))
		}
	})
	net.Run(100 * time.Millisecond)
	st := net.StreamStats(0)
	if st.Evictions != 3 {
		// 2000 parked + 5×3000 against a 10000 budget: three evicted.
		t.Fatalf("evictions %d, want 3 (stats %+v)", st.Evictions, st)
	}
	if st.QueuedBytes != 8000 {
		t.Fatalf("parked %d bytes, want 8000 (budget %d)", st.QueuedBytes, cfg.Stream.ParkBudget)
	}
	if got := net.Stats(0).Sent[transport.ClassDatablock]; got != 1000 {
		t.Fatalf("sent %d bytes during the outage, want the 1000 booked (18000 were enqueued)", got)
	}
	if len(nodes[1].got) != 0 {
		t.Fatal("crashed receiver got deliveries")
	}
	net.Restart(1)
	net.Run(time.Second)
	if got := nodes[1].got; len(got) != 3 || got[0] != 10 {
		t.Fatalf("surviving streams delivered %v, want the started stream 10 and two more", got)
	}
	if st := net.StreamStats(0); st.QueuedBytes != 0 || st.StreamsActive != 0 {
		t.Fatalf("flow not drained after restart: %+v", st)
	}
	if got := net.Stats(0).Sent[transport.ClassDatablock]; got != 9000 {
		t.Fatalf("sent %d bytes in total, want 9000: three frames, the evicted three excluded", got)
	}
}

// TestCreditControlStillPreempts: control traffic keeps its strict
// priority over the streamed bulk lane — a vote sent mid-transfer does
// not wait for the bulk backlog.
func TestCreditControlStillPreempts(t *testing.T) {
	cfg := streamCfg(1 << 20)
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{
		transport.Unicast(1, &testMsg{size: 1000000, tag: 1}), // ~1s of bulk
		transport.Unicast(1, &testMsg{size: 100, tag: 2, control: true}),
	}
	net.Start()
	net.Run(5 * time.Second)
	if len(nodes[1].got) != 2 || nodes[1].got[0] != 2 {
		t.Fatalf("delivery order %v, want the vote first", nodes[1].got)
	}
	if nodes[1].gotAt[0] > 10*time.Millisecond {
		t.Fatalf("vote delayed to %v behind streamed bulk", nodes[1].gotAt[0])
	}
}

// TestSlowReceiverIngressOverride: IngressBpsPer throttles one replica's
// ingress without touching the others.
func TestSlowReceiverIngressOverride(t *testing.T) {
	cfg := streamCfg(1 << 20)
	cfg.IngressBpsPer = []float64{0, 0, 8e4} // replica 2: 10 KB/s
	net, nodes := newTestNet(t, cfg, 3)
	nodes[0].onStart = []transport.Envelope{
		transport.Unicast(1, &testMsg{size: 10000, tag: 1}),
		transport.Unicast(2, &testMsg{size: 10000, tag: 2}),
	}
	net.Start()
	net.Run(10 * time.Second)
	if len(nodes[1].got) != 1 || len(nodes[2].got) != 1 {
		t.Fatalf("deliveries %v / %v", nodes[1].got, nodes[2].got)
	}
	fast, slow := nodes[1].gotAt[0], nodes[2].gotAt[0]
	if slow < 50*fast {
		t.Fatalf("slow receiver at %v vs fast %v: override not applied", slow, fast)
	}
}

// TestStreamDeterminism: identically-seeded runs with jitter
// produce identical chunk schedules, grants and delivery times.
func TestStreamDeterminism(t *testing.T) {
	run := func() []time.Duration {
		cfg := streamCfg(3000)
		cfg.Jitter = time.Millisecond
		cfg.Seed = 99
		net, nodes := newTestNet(t, cfg, 4)
		nodes[0].onStart = []transport.Envelope{transport.Broadcast(&testMsg{size: 25000, tag: 1})}
		nodes[1].onStart = []transport.Envelope{transport.Broadcast(&testMsg{size: 12000, tag: 2})}
		net.Start()
		net.Run(10 * time.Second)
		var all []time.Duration
		for _, n := range nodes {
			all = append(all, n.gotAt...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("event counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: stream model not deterministic", i, a[i], b[i])
		}
	}
}

// TestCreditCrashMidFlightRecovers: chunks in flight when the receiver
// crashes refund their credit (the sim's stand-in for the TCP window
// reset on reconnect) — without the refund the flow would park forever
// with the window "in flight" to a dead peer and Restart could never
// unpark it.
func TestCreditCrashMidFlightRecovers(t *testing.T) {
	cfg := streamCfg(2000) // window = 2 chunks
	net, nodes := newTestNet(t, cfg, 2)
	net.Start()
	net.ScheduleCall(time.Millisecond, func(now time.Duration) {
		net.dispatch(0, transport.Unicast(1, &testMsg{size: 10000, tag: 5}))
	})
	// Crash while the first window's chunks are on the wire (1 KB takes
	// 1 ms; both booked chunks arrive after the crash).
	net.ScheduleCall(1500*time.Microsecond, func(now time.Duration) {
		net.Crash(1)
	})
	net.Run(50 * time.Millisecond)
	if len(nodes[1].got) != 0 {
		t.Fatal("crashed receiver got a delivery")
	}
	// The in-flight chunks' credit must have refunded: otherwise the
	// flow is parked at zero credit forever.
	net.Restart(1)
	net.Run(10 * time.Second)
	if len(nodes[1].got) != 1 || nodes[1].got[0] != 5 {
		t.Fatalf("flow never recovered after restart: got %v", nodes[1].got)
	}
	if st := net.StreamStats(0); st.QueuedBytes != 0 || st.StreamsActive != 0 {
		t.Fatalf("flow not drained: %+v", st)
	}
}
