package tcp_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/transport/tcp"
	"leopard/internal/types"
)

// freeAddrs reserves n distinct localhost ports.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// TestLeopardOverTCP runs a real 4-replica Leopard cluster over localhost
// TCP with Ed25519 signatures end to end: submit requests, watch every
// replica execute them.
func TestLeopardOverTCP(t *testing.T) {
	const n = 4
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("tcp-test"))
	if err != nil {
		t.Fatal(err)
	}
	addrs := freeAddrs(t, n)

	var executed [n]atomic.Int64
	runtimes := make([]*tcp.Runtime, n)
	nodes := make([]*leopard.Node, n)
	for i := 0; i < n; i++ {
		node, err := leopard.NewNode(leopard.Config{
			ID:            types.ReplicaID(i),
			Quorum:        q,
			Suite:         suite,
			DatablockSize: 10,
			BFTBlockSize:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		node.SetExecutor(func(sn types.SeqNum, reqs []types.Request) {
			executed[idx].Add(int64(len(reqs)))
		})
		nodes[i] = node
		rt, err := tcp.New(tcp.Config{
			Self:         types.ReplicaID(i),
			Addrs:        addrs,
			Codec:        leopard.WireCodec{},
			TickInterval: 5 * time.Millisecond,
		}, node)
		if err != nil {
			t.Fatal(err)
		}
		runtimes[i] = rt
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, rt := range runtimes {
		rt := rt
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Run(ctx)
		}()
	}
	defer func() {
		cancel()
		for _, rt := range runtimes {
			rt.Stop()
		}
		wg.Wait()
	}()

	// Give listeners a moment, then submit 40 requests to replicas 2 and 3
	// (replica 1 leads view 1). One client per replica, each with its own
	// seq stream: a client must not stripe one stream across replicas (see
	// workload.Generator).
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < 40; i++ {
		target := 2 + i%2
		req := types.Request{ClientID: uint64(target), Seq: uint64(i / 2), Payload: []byte(fmt.Sprintf("req-%d", i))}
		node := nodes[target]
		if err := runtimes[target].Inject(func(now time.Duration, out transport.Sink) {
			node.SubmitSigned(now, req, nil)
		}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.After(15 * time.Second)
	for {
		done := true
		for i := range executed {
			if executed[i].Load() < 40 {
				done = false
			}
		}
		if done {
			break
		}
		select {
		case <-deadline:
			counts := make([]int64, n)
			for i := range executed {
				counts[i] = executed[i].Load()
			}
			t.Fatalf("timeout: executed counts %v, want all >= 40", counts)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// helloNode sends one control-lane message to its peer on Start and
// reports what it receives; after that it is silent.
type helloNode struct {
	idleNode
	peer types.ReplicaID
	got  chan struct{}
}

func (n *helloNode) Start(now time.Duration, out transport.Sink) {
	out.Send(transport.Unicast(n.peer, &laneMsg{tag: 'h', policy: transport.PolicyControl}))
}

func (n *helloNode) Deliver(time.Duration, types.ReplicaID, transport.Message, transport.Sink) {
	n.got <- struct{}{}
}

// TestStopReturnsOnIdleConnections: Stop must not wait for a peer to write.
// Two runtimes connect in both directions and fall silent; a read loop
// blocked on such a connection only returns when Stop closes it.
func TestStopReturnsOnIdleConnections(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var rts [2]*tcp.Runtime
	var nodes [2]*helloNode
	var wg sync.WaitGroup
	for i := range rts {
		nodes[i] = &helloNode{
			idleNode: idleNode{id: types.ReplicaID(i)},
			peer:     types.ReplicaID(1 - i),
			got:      make(chan struct{}, 1),
		}
		rt, err := tcp.New(tcp.Config{
			Self:         types.ReplicaID(i),
			Addrs:        addrs,
			Codec:        laneCodec{},
			TickInterval: time.Hour,
			DialRetry:    10 * time.Millisecond,
		}, nodes[i])
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Run(context.Background())
		}()
	}
	for _, n := range nodes {
		select {
		case <-n.got:
		case <-time.After(5 * time.Second):
			t.Fatal("runtimes never connected")
		}
	}
	for i, rt := range rts {
		stopped := make(chan struct{})
		go func() {
			rt.Stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(2 * time.Second):
			t.Fatalf("runtime %d: Stop still waiting on an idle peer connection after 2s", i)
		}
	}
	wg.Wait()
}
