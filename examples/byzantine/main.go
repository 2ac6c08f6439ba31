// byzantine: the paper's selective attack (§IV-A2) and Leopard's defense.
//
// A faulty replica disseminates its datablocks to only a bare quorum of
// replicas and ignores retrieval queries from everyone else. The ready
// round guarantees the leader only links datablocks held by 2f+1 replicas,
// so the excluded honest replicas can always recover them from f+1 honest
// holders via erasure-coded responses (Alg. 3) — liveness is preserved.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
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
	const n = 7 // f = 2, quorum = 5; replica 1 leads view 1
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return err
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("byzantine-demo"))
	if err != nil {
		return err
	}
	nodes := make([]transport.Node, n)
	leo := make([]*leopard.Node, n)
	for i := 0; i < n; i++ {
		node, err := leopard.NewNode(leopard.Config{
			ID:               types.ReplicaID(i),
			Quorum:           q,
			Suite:            suite,
			DatablockSize:    20,
			BFTBlockSize:     2,
			RetrievalTimeout: 10 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		leo[i] = node
		nodes[i] = node
	}

	net, err := simnet.New(simnet.DefaultConfig(), nodes)
	if err != nil {
		return err
	}
	// Replica 2 is Byzantine: its datablocks reach only replicas
	// 0, 1, 3, 4 (with itself that is 2f+1 = 5 holders, enough for the
	// ready round), and it ignores queries from replicas 5 and 6.
	net.SetFilter(harness.SelectiveAttack([]types.ReplicaID{2}, []types.ReplicaID{0, 1, 3, 4}))
	net.Start()

	// The faulty replica's clients submit 60 requests through it.
	for i := 0; i < 60; i++ {
		leo[2].SubmitSigned(net.Now(), types.Request{
			ClientID: 7, Seq: uint64(i), Payload: []byte("attacked-payload"),
		}, nil)
	}
	net.Run(2 * time.Second)

	fmt.Println("per-replica outcome (replica 2 is the attacker):")
	for i, node := range leo {
		st := node.Stats()
		retrBytes := net.Stats(types.ReplicaID(i)).Received[transport.ClassRetrieval]
		fmt.Printf("  replica %d: confirmed=%3d retrievals=%d retrieval-bytes-in=%d\n",
			i, st.ConfirmedRequests, st.Retrievals, retrBytes)
	}

	for i, node := range leo {
		if got := node.Stats().ConfirmedRequests; got < 60 {
			return fmt.Errorf("replica %d confirmed only %d of 60", i, got)
		}
	}
	recovered := leo[5].Stats().Retrievals + leo[6].Stats().Retrievals
	fmt.Printf("\nliveness preserved: all replicas confirmed all 60 requests;\n"+
		"replicas 5 and 6 recovered %d datablocks through the erasure-coded committee\n", recovered)
	return nil
}
