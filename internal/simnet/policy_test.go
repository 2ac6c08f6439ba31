package simnet

import (
	"testing"
	"time"

	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestQueryOvertakesChargedBacklog: a holder's CPU stage is busy with a
// second of datablocks when a retrieval query for one of them arrives. The
// query is control traffic and uncharged, so it is delivered at once, not
// after the backlog drains — by then a real holder has released the block
// the query asks for. A new-view message on the same tick rides the
// control lane too, but it is charged, so it waits its turn in the stage.
func TestQueryOvertakesChargedBacklog(t *testing.T) {
	cfg := Config{EgressBps: 8e9, IngressBps: 8e9, ProcBps: 8e6, TickInterval: 10 * time.Millisecond}
	net, nodes := newTestNet(t, cfg, 3)
	const blocks = 10 // 100 KB each: 1 s of a 1 MB/s CPU stage
	for i := range blocks {
		db := &types.Datablock{
			Ref:      types.DatablockRef{Generator: 0, Counter: uint64(i)},
			Requests: []types.Request{{ClientID: 1, Seq: uint64(i), Payload: make([]byte, 100_000)}},
		}
		nodes[0].onStart = append(nodes[0].onStart, transport.Unicast(2, &leopard.DatablockMsg{Block: db}))
	}
	query := &leopard.QueryMsg{Digests: []types.Hash{{1}}}
	newView := &leopard.NewViewMsg{NewView: 2}
	nodes[1].tickSend = []transport.Envelope{transport.Unicast(2, query), transport.Unicast(2, newView)}
	net.Start()
	net.Run(5 * time.Second)

	at := func(msg transport.Message) time.Duration {
		for i, m := range nodes[2].gotMsgs {
			if m == msg {
				return nodes[2].gotAt[i]
			}
		}
		t.Fatalf("%T never delivered", msg)
		return 0
	}
	if len(nodes[2].gotMsgs) != blocks+2 {
		t.Fatalf("receiver got %d messages, want %d", len(nodes[2].gotMsgs), blocks+2)
	}
	var drained time.Duration
	for i, m := range nodes[2].gotMsgs {
		if _, ok := m.(*leopard.DatablockMsg); ok {
			drained = max(drained, nodes[2].gotAt[i])
		}
	}
	if drained < 900*time.Millisecond {
		t.Fatalf("backlog drained at %v; the CPU stage was never busy", drained)
	}
	if got := at(query); got > 20*time.Millisecond {
		t.Errorf("query sent at 10ms delivered at %v, behind the backlog that drained at %v", got, drained)
	}
	if got := at(newView); got <= drained {
		t.Errorf("new-view delivered at %v, before the backlog drained at %v: its bytes went uncharged", got, drained)
	}
}
