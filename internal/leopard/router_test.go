package leopard_test

import (
	"slices"
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/simnet"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// router delivers envelopes among nodes synchronously in FIFO order, with
// no bandwidth model. It gives protocol-logic tests precise control over
// time and message schedules (drop/reorder hooks) without simnet.
type router struct {
	t     testing.TB
	nodes []*leopard.Node
	now   time.Duration
	// drop, when set, suppresses matching deliveries.
	drop func(from, to types.ReplicaID, msg transport.Message) bool

	queue []routedMsg
}

type routedMsg struct {
	from, to types.ReplicaID
	msg      transport.Message
}

// newRouter builds n Leopard nodes with the given config mutator.
func newRouter(t testing.TB, n int, mutate func(*leopard.Config)) *router {
	t.Helper()
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	r := &router{t: t}
	for i := 0; i < n; i++ {
		cfg := leopard.Config{
			ID:            types.ReplicaID(i),
			Quorum:        q,
			Suite:         suite,
			DatablockSize: 10,
			BFTBlockSize:  2,
			// Long VC timeout by default so logic tests control it.
			ViewChangeTimeout: time.Hour,
			RetrievalTimeout:  10 * time.Millisecond,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		node, err := leopard.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, node)
	}
	for _, node := range r.nodes {
		r.enqueue(node.ID(), start(node, r.now))
	}
	r.flush()
	return r
}

// filter installs a simnet filter as the drop hook: what f refuses is
// dropped.
func (r *router) filter(f simnet.Filter) {
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		return !f(r.now, from, to, msg)
	}
}

// silence drops everything the given replicas send while they keep
// consuming their input (a crash-like fault).
func (r *router) silence(ids ...types.ReplicaID) {
	r.drop = func(from, _ types.ReplicaID, _ transport.Message) bool {
		return slices.Contains(ids, from)
	}
}

// start drives Start and returns the pushed envelopes.
func start(node *leopard.Node, now time.Duration) []transport.Envelope {
	var sink transport.SliceSink
	node.Start(now, &sink)
	return sink.Envelopes
}

// deliver drives one message into node and returns the pushed envelopes —
// the SliceSink bridge from the push-based Sink API back to the slices
// these logic tests assert on.
func deliver(node *leopard.Node, now time.Duration, from types.ReplicaID, msg transport.Message) []transport.Envelope {
	var sink transport.SliceSink
	node.Deliver(now, from, msg, &sink)
	return sink.Envelopes
}

// tick drives Tick and returns the pushed envelopes.
func tick(node *leopard.Node, now time.Duration) []transport.Envelope {
	var sink transport.SliceSink
	node.Tick(now, &sink)
	return sink.Envelopes
}

func (r *router) enqueue(from types.ReplicaID, outs []transport.Envelope) {
	for _, env := range outs {
		if env.Msg == nil {
			continue
		}
		if env.Broadcast {
			for i := range r.nodes {
				to := types.ReplicaID(i)
				if to != from {
					r.queue = append(r.queue, routedMsg{from: from, to: to, msg: env.Msg})
				}
			}
			continue
		}
		r.queue = append(r.queue, routedMsg{from: from, to: env.To, msg: env.Msg})
	}
}

// flush delivers queued messages (and any they generate) to exhaustion.
func (r *router) flush() {
	for len(r.queue) > 0 {
		m := r.queue[0]
		r.queue = r.queue[1:]
		if int(m.to) >= len(r.nodes) {
			continue
		}
		if r.drop != nil && r.drop(m.from, m.to, m.msg) {
			continue
		}
		outs := deliver(r.nodes[m.to], r.now, m.from, m.msg)
		r.enqueue(m.to, outs)
	}
}

// tickAll moves time one step forward and ticks every node, returning what
// the ticks themselves sent; flush delivers it.
func (r *router) tickAll(step time.Duration) []transport.Envelope {
	r.now += step
	var sent []transport.Envelope
	for _, node := range r.nodes {
		outs := tick(node, r.now)
		sent = append(sent, outs...)
		r.enqueue(node.ID(), outs)
	}
	return sent
}

// advance moves time forward in tick-sized steps, ticking every node and
// flushing after each step.
func (r *router) advance(d, step time.Duration) {
	deadline := r.now + d
	for r.now < deadline {
		r.tickAll(step)
		r.flush()
	}
}

// submit feeds count requests to the given node's mempool.
func (r *router) submit(to types.ReplicaID, count int, firstSeq uint64) {
	for i := 0; i < count; i++ {
		req := types.Request{ClientID: uint64(to) + 1, Seq: firstSeq + uint64(i), Payload: make([]byte, 32)}
		if v := r.nodes[to].SubmitSigned(r.now, req, nil); !v.OK() {
			r.t.Fatalf("request %d rejected at %d: %v", i, to, v)
		}
	}
}
