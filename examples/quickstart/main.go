// Quickstart: a 4-replica Leopard cluster on the in-process simulator.
// Submit 100 requests to the non-leader replicas and watch them confirm.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/simnet"
	"leopard/internal/transport"
	"leopard/internal/types"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 4
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return err
	}
	// Real Ed25519 threshold-style signatures (trusted-dealer setup).
	suite, err := crypto.NewEd25519Suite(n, []byte("quickstart"))
	if err != nil {
		return err
	}

	// Build the four replicas. Replica 0's executor prints confirmations.
	nodes := make([]transport.Node, n)
	var leoNodes [n]*leopard.Node
	for i := 0; i < n; i++ {
		node, err := leopard.NewNode(leopard.Config{
			ID:            types.ReplicaID(i),
			Quorum:        q,
			Suite:         suite,
			DatablockSize: 10, // small batches so the demo confirms fast
			BFTBlockSize:  2,
		})
		if err != nil {
			return err
		}
		leoNodes[i] = node
		nodes[i] = node
	}
	confirmed := 0
	leoNodes[0].SetExecutor(func(sn types.SeqNum, reqs []types.Request) {
		confirmed += len(reqs)
		fmt.Printf("block %d executed with %d requests (total %d)\n", sn, len(reqs), confirmed)
	})

	// Wire them onto the simulated network (9.8 Gbps, 500us latency).
	net, err := simnet.New(simnet.DefaultConfig(), nodes)
	if err != nil {
		return err
	}
	net.Start()

	// Submit 100 requests to the non-leader replicas (replica 1 leads
	// view 1): one client per replica, each with its own seq stream. A
	// replica that first learns of a client from a confirmation refuses
	// that client's lower seqs as stale, so a client must not stripe one
	// stream across replicas. In a deployment a client library does this;
	// see cmd/leopard-client.
	leader := leoNodes[0].Leader()
	seqs := make(map[types.ReplicaID]uint64)
	submitted := 0
	for i := 0; submitted < 100; i++ {
		target := types.ReplicaID(i % n)
		if target == leader {
			continue
		}
		req := types.Request{
			ClientID: 42 + uint64(target),
			Seq:      seqs[target],
			Payload:  []byte(fmt.Sprintf("transfer #%d", submitted)),
		}
		seqs[target]++
		leoNodes[target].SubmitSigned(net.Now(), req, nil)
		submitted++
	}

	// Run one virtual second; everything confirms within a few ms.
	net.Run(time.Second)

	fmt.Printf("\nconfirmed %d/100 requests; replica 0 executed up to block %d\n",
		confirmed, leoNodes[0].ExecutedTo())
	if confirmed < 100 {
		return fmt.Errorf("expected all 100 requests to confirm")
	}
	return nil
}
