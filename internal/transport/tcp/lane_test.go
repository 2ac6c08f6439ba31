package tcp_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"leopard/internal/transport"
	"leopard/internal/transport/tcp"
	"leopard/internal/types"
)

// laneMsg is a sized, tagged message whose policy selects its lane.
type laneMsg struct {
	tag    byte
	policy transport.Policy
	size   int
}

func (m *laneMsg) WireSize() int            { return m.size }
func (m *laneMsg) Class() transport.Class   { return transport.ClassMisc }
func (m *laneMsg) Policy() transport.Policy { return m.policy }

// laneCodec round-trips laneMsg through 2-byte frames.
type laneCodec struct{}

func (laneCodec) Encode(msg transport.Message) ([]byte, error) {
	m, ok := msg.(*laneMsg)
	if !ok {
		return nil, fmt.Errorf("laneCodec: unexpected %T", msg)
	}
	return []byte{m.tag, byte(m.policy)}, nil
}

func (laneCodec) Decode(buf []byte) (transport.Message, error) {
	if len(buf) != 2 {
		return nil, fmt.Errorf("laneCodec: bad frame")
	}
	return &laneMsg{tag: buf[0], policy: transport.Policy(buf[1])}, nil
}

// idleNode is a transport.Node that never emits on its own.
type idleNode struct{ id types.ReplicaID }

func (n *idleNode) ID() types.ReplicaID                 { return n.id }
func (n *idleNode) Start(time.Duration, transport.Sink) {}
func (n *idleNode) Tick(time.Duration, transport.Sink)  {}
func (n *idleNode) Deliver(time.Duration, types.ReplicaID, transport.Message, transport.Sink) {
}

// runLaneOrder enqueues two bulk envelopes and then one control envelope to
// an unreachable peer, brings the peer up, and returns the tags in the
// order they crossed the wire.
func runLaneOrder(t *testing.T) []byte {
	t.Helper()
	addrs := freeAddrs(t, 2)

	rt, err := tcp.New(tcp.Config{
		Self:         0,
		Addrs:        addrs,
		Codec:        laneCodec{},
		TickInterval: time.Hour, // no tick noise
		DialRetry:    10 * time.Millisecond,
	}, &idleNode{id: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.Run(ctx)
	}()
	defer func() {
		cancel()
		rt.Stop()
		wg.Wait()
	}()

	// Peer 1 is down: the send loop dequeues the first frame and spins in
	// dial retries, so everything enqueued next is demonstrably in-queue.
	err = rt.Inject(func(now time.Duration, out transport.Sink) {
		out.Send(transport.Unicast(1, &laneMsg{tag: 'A', policy: transport.PolicyBulk}))
		out.Send(transport.Unicast(1, &laneMsg{tag: 'B', policy: transport.PolicyBulk}))
		out.Send(transport.Unicast(1, &laneMsg{tag: 'C', policy: transport.PolicyControl}))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the send loop commit to the first bulk frame and hit the dial
	// retry path before the peer appears.
	time.Sleep(50 * time.Millisecond)

	ln, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))

	var hello [8]byte // replica id + connection epoch
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if got := binary.BigEndian.Uint32(hello[:4]); got != 0 {
		t.Fatalf("hello from replica %d, want 0", got)
	}
	// Read wire frames ([len | kind | body]) until three messages have
	// crossed: whole frames decode directly, bulk frames arrive as stream
	// chunks and reassemble first.
	asm := transport.NewReassembler(transport.StreamConfig{}, 64<<20)
	var order []byte
	decodeTag := func(frame []byte) {
		msg, err := laneCodec{}.Decode(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		order = append(order, msg.(*laneMsg).tag)
	}
	for len(order) < 3 {
		var hdr [5]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("frame %d header: %v", len(order), err)
		}
		size := int(binary.BigEndian.Uint32(hdr[:4])) - 1
		switch hdr[4] {
		case 0x00: // whole message
			body := make([]byte, size)
			if _, err := io.ReadFull(conn, body); err != nil {
				t.Fatalf("frame %d body: %v", len(order), err)
			}
			decodeTag(body)
		case 0x01: // stream chunk: header, then the payload read in place
			var chunk [transport.StreamHeaderSize]byte
			if _, err := io.ReadFull(conn, chunk[:]); err != nil {
				t.Fatalf("frame %d chunk header: %v", len(order), err)
			}
			sh, err := transport.ParseStreamHeader(chunk[:])
			if err != nil {
				t.Fatalf("chunk header: %v", err)
			}
			complete, err := asm.Add(sh, size-len(chunk), conn)
			if err != nil {
				t.Fatalf("reassemble: %v", err)
			}
			if complete != nil {
				decodeTag(complete)
			}
		default:
			t.Fatalf("unexpected frame kind %#x", hdr[4])
		}
	}
	return order
}

// TestControlLaneOvertakesQueuedBulk is the lane-priority regression test:
// a control envelope enqueued after a large bulk envelope must depart
// before it — the strict control-over-bulk scheduler may not let queued
// datablocks head-of-line-block votes.
func TestControlLaneOvertakesQueuedBulk(t *testing.T) {
	order := runLaneOrder(t)
	pos := map[byte]int{}
	for i, tag := range order {
		pos[tag] = i
	}
	if len(pos) != 3 {
		t.Fatalf("wire order %q lost frames", order)
	}
	// The control frame C was enqueued after bulk B; with strict lane
	// priority it must cross the wire before B. (A may precede C if the
	// send loop had already committed A to the connection attempt.)
	if pos['C'] > pos['B'] {
		t.Fatalf("control did not overtake queued bulk: wire order %q", order)
	}
}
