package simnet

import (
	"fmt"
	"testing"
	"time"

	"leopard/internal/transport"
	"leopard/internal/types"
)

// testMsg is a sized message for transport tests. It defaults to a bulk,
// charged datablock so bandwidth-queue tests exercise FIFO behaviour; set
// control for an uncharged control-lane vote (priority behaviour).
type testMsg struct {
	size    int
	tag     int
	control bool
}

func (m *testMsg) WireSize() int { return m.size }
func (m *testMsg) Class() transport.Class {
	if m.control {
		return transport.ClassVote
	}
	return transport.ClassDatablock
}
func (m *testMsg) Policy() transport.Policy {
	if m.control {
		return transport.PolicyControl
	}
	return transport.PolicyBulk
}

// echoNode records deliveries and can send on start or tick.
type echoNode struct {
	id       types.ReplicaID
	onStart  []transport.Envelope
	got      []int
	gotAt    []time.Duration
	gotFrom  []types.ReplicaID
	gotMsgs  []transport.Message
	tickSend []transport.Envelope
	ticks    int
}

func (n *echoNode) ID() types.ReplicaID { return n.id }
func (n *echoNode) Start(now time.Duration, out transport.Sink) {
	for _, env := range n.onStart {
		out.Send(env)
	}
}
func (n *echoNode) Deliver(now time.Duration, from types.ReplicaID, msg transport.Message, out transport.Sink) {
	tag := -1 // not a testMsg: read it from gotMsgs
	if m, ok := msg.(*testMsg); ok {
		tag = m.tag
	}
	n.got = append(n.got, tag)
	n.gotAt = append(n.gotAt, now)
	n.gotFrom = append(n.gotFrom, from)
	n.gotMsgs = append(n.gotMsgs, msg)
}
func (n *echoNode) Tick(now time.Duration, out transport.Sink) {
	n.ticks++
	for _, env := range n.tickSend {
		out.Send(env)
	}
	n.tickSend = nil
}

func newTestNet(t *testing.T, cfg Config, count int) (*Network, []*echoNode) {
	t.Helper()
	nodes := make([]*echoNode, count)
	tnodes := make([]transport.Node, count)
	for i := range nodes {
		nodes[i] = &echoNode{id: types.ReplicaID(i)}
		tnodes[i] = nodes[i]
	}
	net, err := New(cfg, tnodes)
	if err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

func TestDeliveryTimeIncludesBandwidthAndLatency(t *testing.T) {
	cfg := Config{
		EgressBps:  8e6, // 1 MB/s
		IngressBps: 8e6,
		Latency:    10 * time.Millisecond,
	}
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{transport.Unicast(1, &testMsg{size: 1000, tag: 1})}
	net.Start()
	net.Run(time.Second)

	if len(nodes[1].got) != 1 {
		t.Fatalf("node 1 received %d messages", len(nodes[1].got))
	}
	// 1000 bytes at 1 MB/s = 1 ms egress + 10 ms latency + 1 ms ingress.
	want := 12 * time.Millisecond
	got := nodes[1].gotAt[0]
	if got < want || got > want+time.Millisecond {
		t.Errorf("delivered at %v, want ~%v", got, want)
	}
}

func TestEgressSerializesBroadcast(t *testing.T) {
	// A broadcast of b bytes to n-1 peers occupies the egress pipe
	// (n-1)*b/rate seconds: the last receiver sees it much later than the
	// first. This is the leader-bottleneck mechanism of the paper.
	cfg := Config{EgressBps: 8e6, IngressBps: 8e9, Latency: 0}
	net, nodes := newTestNet(t, cfg, 5)
	nodes[0].onStart = []transport.Envelope{transport.Broadcast(&testMsg{size: 1000, tag: 1})}
	net.Start()
	net.Run(time.Second)

	first := nodes[1].gotAt[0]
	last := nodes[4].gotAt[0]
	if last <= first {
		t.Fatalf("broadcast did not serialize: first=%v last=%v", first, last)
	}
	// 4 copies at 1 ms each: last should arrive ~4 ms in.
	if last < 3900*time.Microsecond || last > 4200*time.Microsecond {
		t.Errorf("last delivery at %v, want ~4ms", last)
	}
}

func TestIngressContention(t *testing.T) {
	// Two senders each send 1000 B to node 2 simultaneously; the second
	// transfer must queue behind the first at the receiver's ingress.
	cfg := Config{EgressBps: 8e9, IngressBps: 8e6, Latency: 0}
	net, nodes := newTestNet(t, cfg, 3)
	nodes[0].onStart = []transport.Envelope{transport.Unicast(2, &testMsg{size: 1000, tag: 1})}
	nodes[1].onStart = []transport.Envelope{transport.Unicast(2, &testMsg{size: 1000, tag: 2})}
	net.Start()
	net.Run(time.Second)

	if len(nodes[2].got) != 2 {
		t.Fatalf("received %d messages", len(nodes[2].got))
	}
	gap := nodes[2].gotAt[1] - nodes[2].gotAt[0]
	if gap < 900*time.Microsecond {
		t.Errorf("ingress did not serialize: gap %v, want ~1ms", gap)
	}
}

func TestPerPairFIFOOrder(t *testing.T) {
	cfg := Config{EgressBps: 8e6, IngressBps: 8e6, Latency: time.Millisecond}
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{
		transport.Unicast(1, &testMsg{size: 5000, tag: 1}), // large first
		transport.Unicast(1, &testMsg{size: 10, tag: 2}),   // small second
	}
	net.Start()
	net.Run(time.Second)
	if len(nodes[1].got) != 2 || nodes[1].got[0] != 1 || nodes[1].got[1] != 2 {
		t.Fatalf("bulk messages reordered: %v", nodes[1].got)
	}
}

func TestControlTrafficPreemptsBulk(t *testing.T) {
	// A small control message (vote) sent after a large bulk transfer must
	// not wait behind it: real stacks interleave flows (priority queuing).
	cfg := Config{EgressBps: 8e6, IngressBps: 8e6, Latency: 0}
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{
		transport.Unicast(1, &testMsg{size: 1000000, tag: 1}), // 1s of bulk
		transport.Unicast(1, &testMsg{size: 100, tag: 2, control: true}),
	}
	net.Start()
	net.Run(5 * time.Second)
	if len(nodes[1].got) != 2 {
		t.Fatalf("received %d messages", len(nodes[1].got))
	}
	if nodes[1].got[0] != 2 {
		t.Fatal("control message did not preempt the bulk transfer")
	}
	if nodes[1].gotAt[0] > 10*time.Millisecond {
		t.Errorf("control message delayed to %v", nodes[1].gotAt[0])
	}
}

func TestFilterDropsMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickInterval = 0
	net, nodes := newTestNet(t, cfg, 3)
	nodes[0].onStart = []transport.Envelope{transport.Broadcast(&testMsg{size: 10, tag: 1})}
	net.SetFilter(func(now time.Duration, from, to types.ReplicaID, msg transport.Message) bool {
		return to != 2 // drop everything to node 2
	})
	net.Start()
	net.Run(time.Second)
	if len(nodes[1].got) != 1 {
		t.Error("node 1 should have received the broadcast")
	}
	if len(nodes[2].got) != 0 {
		t.Error("filter failed to drop")
	}
}

// TestCrashAndRestart pins what an outage costs on each lane: a control
// message sent to a crashed replica is lost, while a bulk message stays
// queued at its sender (within the park budget) and is delivered after
// Restart, ahead of anything sent later.
func TestCrashAndRestart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickInterval = 0
	net, nodes := newTestNet(t, cfg, 2)
	net.Start()
	net.Crash(1)
	net.ScheduleCall(10*time.Millisecond, func(now time.Duration) {
		net.dispatch(0, transport.Unicast(1, &testMsg{size: 10, tag: 1, control: true}))
		net.dispatch(0, transport.Unicast(1, &testMsg{size: 10, tag: 2}))
	})
	net.Run(20 * time.Millisecond)
	if len(nodes[1].got) != 0 {
		t.Fatalf("crashed node received %v", nodes[1].got)
	}
	if st := net.StreamStats(0); st.QueuedBytes != 10 || st.StreamsActive != 1 {
		t.Fatalf("bulk message not parked at its sender: %+v", st)
	}
	net.Restart(1)
	net.ScheduleCall(30*time.Millisecond, func(now time.Duration) {
		net.dispatch(0, transport.Unicast(1, &testMsg{size: 10, tag: 3}))
	})
	net.Run(50 * time.Millisecond)
	if got := nodes[1].got; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("restarted node got %v, want [2 3]: the parked bulk message, then the new one", got)
	}
}

func TestTicksFireAtInterval(t *testing.T) {
	cfg := Config{EgressBps: 1e9, IngressBps: 1e9, TickInterval: 10 * time.Millisecond}
	net, nodes := newTestNet(t, cfg, 2)
	net.Start()
	net.Run(100 * time.Millisecond)
	if nodes[0].ticks < 9 || nodes[0].ticks > 11 {
		t.Errorf("got %d ticks in 100ms at 10ms interval", nodes[0].ticks)
	}
	// Ticking must survive across Run calls.
	before := nodes[0].ticks
	net.Run(200 * time.Millisecond)
	if nodes[0].ticks <= before {
		t.Error("ticks stopped after the first Run window")
	}
}

func TestBandwidthAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickInterval = 0
	net, nodes := newTestNet(t, cfg, 3)
	nodes[0].onStart = []transport.Envelope{transport.Broadcast(&testMsg{size: 500, tag: 1})}
	net.Start()
	net.Run(time.Second)
	if got := net.Stats(0).TotalSent(); got != 1000 {
		t.Errorf("sender counted %d bytes, want 1000", got)
	}
	if got := net.Stats(1).TotalReceived(); got != 500 {
		t.Errorf("receiver counted %d bytes, want 500", got)
	}
	net.ResetStats()
	if net.Stats(0).Total() != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestBandwidthTotals(t *testing.T) {
	var b Bandwidth
	b.AddSent(transport.ClassDatablock, 100)
	b.AddSent(transport.ClassDatablock, 50)
	b.AddSent(transport.ClassVote, 10)
	b.AddReceived(transport.ClassBFTblock, 30)
	if got := b.TotalSent(); got != 160 {
		t.Errorf("TotalSent = %d", got)
	}
	if got := b.TotalReceived(); got != 30 {
		t.Errorf("TotalReceived = %d", got)
	}
	if got := b.Total(); got != 190 {
		t.Errorf("Total = %d", got)
	}
}

func TestSelfSendIgnored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickInterval = 0
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{transport.Unicast(0, &testMsg{size: 10, tag: 1})}
	net.Start()
	net.Run(time.Second)
	if len(nodes[0].got) != 0 {
		t.Error("self-send must be dropped")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		cfg := DefaultConfig()
		cfg.Jitter = time.Millisecond
		cfg.TickInterval = 0
		net, nodes := newTestNet(t, cfg, 4)
		nodes[0].onStart = []transport.Envelope{transport.Broadcast(&testMsg{size: 100, tag: 1})}
		nodes[1].onStart = []transport.Envelope{transport.Broadcast(&testMsg{size: 200, tag: 2})}
		net.Start()
		net.Run(time.Second)
		var all []time.Duration
		for _, n := range nodes {
			all = append(all, n.gotAt...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: not deterministic", i, a[i], b[i])
		}
	}
}

// testMsgCodec round-trips testMsg through real bytes, for wire-fidelity
// tests. failDecode simulates a codec rejecting the frame.
type testMsgCodec struct{ failDecode bool }

func (c testMsgCodec) Encode(m transport.Message) ([]byte, error) {
	t := m.(*testMsg)
	var control byte
	if t.control {
		control = 1
	}
	return []byte{byte(t.size >> 8), byte(t.size), byte(t.tag), control}, nil
}

func (c testMsgCodec) Decode(buf []byte) (transport.Message, error) {
	if c.failDecode {
		return nil, fmt.Errorf("testMsgCodec: rejected")
	}
	return &testMsg{size: int(buf[0])<<8 | int(buf[1]), tag: int(buf[2]), control: buf[3] == 1}, nil
}

func TestWireFidelityDeliversDecodedMessage(t *testing.T) {
	cfg := Config{EgressBps: 1e9, IngressBps: 1e9, Codec: testMsgCodec{}}
	sent := &testMsg{size: 500, tag: 42}
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{transport.Unicast(1, sent)}
	net.Start()
	net.Run(time.Second)
	if len(nodes[1].got) != 1 || nodes[1].got[0] != 42 {
		t.Fatalf("fidelity delivery failed: got %v", nodes[1].got)
	}
	if nodes[1].gotMsgs[0] == transport.Message(sent) {
		t.Error("fidelity mode must deliver a decoded message, not the sender's instance")
	}
	if got := nodes[1].gotMsgs[0].WireSize(); got != sent.WireSize() {
		t.Errorf("decoded message WireSize %d, want %d", got, sent.WireSize())
	}
}

func TestWireFidelityDropsUndecodableMessage(t *testing.T) {
	cfg := Config{EgressBps: 1e9, IngressBps: 1e9, Codec: testMsgCodec{failDecode: true}}
	net, nodes := newTestNet(t, cfg, 2)
	nodes[0].onStart = []transport.Envelope{transport.Unicast(1, &testMsg{size: 500, tag: 42})}
	net.Start()
	net.Run(time.Second)
	if len(nodes[1].got) != 0 {
		t.Fatalf("undecodable message delivered: %v", nodes[1].got)
	}
}

func TestNodeIDMismatchRejected(t *testing.T) {
	nodes := []transport.Node{&echoNode{id: 5}}
	if _, err := New(DefaultConfig(), nodes); err == nil {
		t.Fatal("mismatched node id accepted")
	}
}

func TestInvalidCapacityRejected(t *testing.T) {
	if _, err := New(Config{EgressBps: 0, IngressBps: 1}, nil); err == nil {
		t.Fatal("zero egress accepted")
	}
}

// clockNode records the virtual time every tick observes.
type clockNode struct {
	echoNode
	seen []time.Duration
}

func (n *clockNode) Tick(now time.Duration, out transport.Sink) {
	n.seen = append(n.seen, now)
}

// TestClockSkewHealNeverStepsBackwards: healing a positive skew must not
// rewind the node-observed clock — leopard's timer arithmetic assumes time
// is nondecreasing — so the clock holds still until true time catches up.
func TestClockSkewHealNeverStepsBackwards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickInterval = 10 * time.Millisecond
	node := &clockNode{echoNode: echoNode{id: 0}}
	net, err := New(cfg, []transport.Node{node})
	if err != nil {
		t.Fatal(err)
	}
	net.SetClockSkew(0, 40*time.Millisecond)
	net.ScheduleCall(100*time.Millisecond, func(now time.Duration) {
		net.SetClockSkew(0, 0) // heal mid-run
	})
	net.Start()
	net.Run(200 * time.Millisecond)
	if len(node.seen) == 0 {
		t.Fatal("no ticks observed")
	}
	for i := 1; i < len(node.seen); i++ {
		if node.seen[i] < node.seen[i-1] {
			t.Fatalf("observed clock stepped backwards: %v after %v", node.seen[i], node.seen[i-1])
		}
	}
	// Once true time passes the skewed high-water mark, the clock advances
	// again instead of freezing forever.
	if last := node.seen[len(node.seen)-1]; last <= 150*time.Millisecond {
		t.Fatalf("observed clock never resumed after the heal: last tick at %v", last)
	}
}
