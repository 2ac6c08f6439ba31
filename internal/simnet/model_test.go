package simnet

import (
	"testing"
	"time"

	"leopard/internal/transport"
)

// TestProcessingStageSerializesBulk verifies the CPU-model stage: bulk
// messages queue through the per-replica processing pipe after ingress.
func TestProcessingStageSerializesBulk(t *testing.T) {
	cfg := Config{
		EgressBps:  8e9, // network effectively free
		IngressBps: 8e9,
		ProcBps:    8e6, // 1 MB/s processing
	}
	net, nodes := newTestNet(t, cfg, 3)
	// Two 1000-byte bulk messages: processing takes 1 ms each, serially.
	nodes[0].onStart = []transport.Envelope{transport.Unicast(2, &testMsg{size: 1000, tag: 1})}
	nodes[1].onStart = []transport.Envelope{transport.Unicast(2, &testMsg{size: 1000, tag: 2})}
	net.Start()
	net.Run(time.Second)
	if len(nodes[2].got) != 2 {
		t.Fatalf("received %d messages", len(nodes[2].got))
	}
	if gap := nodes[2].gotAt[1] - nodes[2].gotAt[0]; gap < 900*time.Microsecond {
		t.Errorf("processing did not serialize: gap %v", gap)
	}
}

// TestProcessingStageSkipsControl verifies control messages bypass the
// processing queue entirely.
func TestProcessingStageSkipsControl(t *testing.T) {
	cfg := Config{EgressBps: 8e9, IngressBps: 8e9, ProcBps: 8e3} // proc crawls
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{
		transport.Unicast(1, &testMsg{size: 1000, tag: 1}),               // bulk: 1s proc
		transport.Unicast(1, &testMsg{size: 100, tag: 2, control: true}), // control
	}
	net.Start()
	net.Run(5 * time.Second)
	if len(nodes[1].got) != 2 {
		t.Fatalf("received %d messages", len(nodes[1].got))
	}
	if nodes[1].got[0] != 2 {
		t.Error("control message waited behind the processing queue")
	}
}

// TestHalfDuplexHalvesDirectionRate verifies that half-duplex mode runs
// each direction at half the configured link rate.
func TestHalfDuplexHalvesDirectionRate(t *testing.T) {
	full := Config{EgressBps: 8e6, IngressBps: 8e6}
	half := full
	half.HalfDuplex = true

	measure := func(cfg Config) time.Duration {
		net, nodes := newTestNet(t, cfg, 2)
		nodes[0].onStart = []transport.Envelope{transport.Unicast(1, &testMsg{size: 10000, tag: 1})}
		net.Start()
		net.Run(time.Second)
		if len(nodes[1].got) != 1 {
			t.Fatal("message not delivered")
		}
		return nodes[1].gotAt[0]
	}
	fullTime := measure(full)
	halfTime := measure(half)
	ratio := float64(halfTime) / float64(fullTime)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("half-duplex delivery took %v vs %v full duplex; want ~2x", halfTime, fullTime)
	}
}

// TestHalfDuplexNoCrossReplicaRatchet is a regression test for the booking
// ratchet: a replica whose *sends* are heavily queued must still be able to
// receive promptly (the directions must not share one FIFO horizon).
func TestHalfDuplexNoCrossReplicaRatchet(t *testing.T) {
	cfg := Config{EgressBps: 8e6, HalfDuplex: true} // 0.5 MB/s per direction
	net, nodes := newTestNet(t, cfg, 3)
	// Node 1 queues 2 seconds of outbound bulk to node 2 at t=0.
	nodes[1].onStart = []transport.Envelope{transport.Unicast(2, &testMsg{size: 1000000, tag: 9})}
	// Node 0 sends a small bulk frame to node 1; it must not wait for
	// node 1's outbound queue to drain.
	nodes[0].onStart = []transport.Envelope{transport.Unicast(1, &testMsg{size: 500, tag: 1})}
	net.Start()
	net.Run(10 * time.Second)
	if len(nodes[1].got) != 1 {
		t.Fatal("node 1 did not receive")
	}
	if nodes[1].gotAt[0] > 100*time.Millisecond {
		t.Errorf("receive delayed to %v by the sender-side queue (ratchet regression)", nodes[1].gotAt[0])
	}
}

// TestPipeLagDiagnostics sanity-checks the diagnostic accessor.
func TestPipeLagDiagnostics(t *testing.T) {
	cfg := Config{EgressBps: 8e6, IngressBps: 8e6, ProcBps: 8e6}
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{transport.Unicast(1, &testMsg{size: 100000, tag: 1})}
	net.Start() // events queued but virtual time still 0
	tx, _, _ := net.PipeLag(0)
	if tx == 0 {
		t.Error("sender egress lag should be non-zero right after queuing")
	}
	net.Run(10 * time.Second)
	tx, rx, proc := net.PipeLag(0)
	if tx != 0 || rx != 0 || proc != 0 {
		t.Errorf("pipes should be drained: %v %v %v", tx, rx, proc)
	}
}
