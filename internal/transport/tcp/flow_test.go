package tcp_test

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/transport/tcp"
	"leopard/internal/types"
)

// bulkMsg is a bulk-lane message of size bytes: its frame is the 4-byte
// sequence number followed by padding.
type bulkMsg struct {
	seq  uint32
	size int
}

func (m *bulkMsg) WireSize() int            { return m.size }
func (m *bulkMsg) Class() transport.Class   { return transport.ClassMisc }
func (m *bulkMsg) Policy() transport.Policy { return transport.PolicyBulk }

// gatedCodec round-trips bulkMsg. With a gate, Decode waits until the gate
// is closed: the receiving read loop stalls as it does behind a full event
// queue, so it neither consumes nor grants credit.
type gatedCodec struct{ gate chan struct{} }

func (gatedCodec) Encode(msg transport.Message) ([]byte, error) {
	m, ok := msg.(*bulkMsg)
	if !ok {
		return nil, errors.New("gatedCodec: not a bulkMsg")
	}
	frame := make([]byte, m.size)
	binary.BigEndian.PutUint32(frame, m.seq)
	return frame, nil
}

func (c gatedCodec) Decode(buf []byte) (transport.Message, error) {
	if c.gate != nil {
		<-c.gate
	}
	if len(buf) < 4 {
		return nil, errors.New("gatedCodec: short frame")
	}
	return &bulkMsg{seq: binary.BigEndian.Uint32(buf), size: len(buf)}, nil
}

// seqNode reports the sequence number of every bulkMsg it receives.
type seqNode struct {
	idleNode
	got chan uint32
}

func (n *seqNode) Deliver(_ time.Duration, _ types.ReplicaID, msg transport.Message, _ transport.Sink) {
	if m, ok := msg.(*bulkMsg); ok {
		n.got <- m.seq
	}
}

// TestCreditGrantsOverTCP streams six credit windows of bulk from one
// runtime to another over loopback. The receiver's read loop is held until
// the sender has spent its first window, so the rest of the bulk parks at
// the sender; after that only the receiver's grants, carried back on the
// reverse connection, can reopen the window. Every message must arrive,
// and none may be evicted or dropped.
func TestCreditGrantsOverTCP(t *testing.T) {
	const (
		window = 256 << 10
		size   = 64 << 10 // one chunk per message
		total  = 6 * window / size
	)
	addrs := freeAddrs(t, 2)
	stream := transport.StreamConfig{CreditWindow: window}
	tracer := obs.NewTracer(0)
	gate := make(chan struct{})
	recv := &seqNode{idleNode: idleNode{id: 1}, got: make(chan uint32, total)}

	var rts [2]*tcp.Runtime
	for i, node := range []transport.Node{&idleNode{id: 0}, recv} {
		cfg := tcp.Config{
			Self:         types.ReplicaID(i),
			Addrs:        addrs,
			Codec:        gatedCodec{},
			TickInterval: time.Hour,
			DialRetry:    10 * time.Millisecond,
			Stream:       stream,
		}
		if i == 0 {
			cfg.Tracer = tracer
		} else {
			cfg.Codec = gatedCodec{gate: gate}
		}
		rt, err := tcp.New(cfg, node)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	var wg sync.WaitGroup
	for _, rt := range rts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Run(context.Background())
		}()
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
		wg.Wait()
	}()
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release() // a held read loop would keep Stop waiting

	sender := rts[0]
	send := func(from, to uint32) {
		t.Helper()
		err := sender.Inject(func(_ time.Duration, out transport.Sink) {
			for seq := from; seq < to; seq++ {
				out.Send(transport.Unicast(1, &bulkMsg{seq: seq, size: size}))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// One window and one message more: the sender spends the window and
	// waits for a grant.
	first := uint32(window/size + 1)
	send(0, first)
	deadline := time.Now().Add(5 * time.Second)
	for sender.StreamTotals().CreditsOutstanding < window {
		if time.Now().After(deadline) {
			t.Fatalf("sender never spent its window: %+v", sender.StreamTotals())
		}
		time.Sleep(time.Millisecond)
	}
	// Enqueued at zero credit, so each of these parks on arrival.
	send(first, total)
	release()

	seen := make(map[uint32]bool, total)
	timeout := time.After(10 * time.Second)
	for len(seen) < total {
		select {
		case seq := <-recv.got:
			if seen[seq] {
				t.Fatalf("message %d delivered twice", seq)
			}
			seen[seq] = true
		case <-timeout:
			t.Fatalf("%d of %d messages arrived; sender %+v", len(seen), total, sender.StreamTotals())
		}
	}

	var parks int
	for _, e := range tracer.Events() {
		if e.Kind == obs.EvCreditParked {
			parks++
		}
	}
	if parks == 0 {
		t.Error("the sender never parked")
	}
	if st := sender.StreamTotals(); st.Evictions != 0 {
		t.Errorf("%d streams evicted", st.Evictions)
	}
	if d := sender.Drops(1); d != 0 {
		t.Errorf("%d frames dropped", d)
	}
}
