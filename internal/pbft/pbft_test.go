package pbft_test

import (
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/pbft"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/transport"
	"leopard/internal/types"
)

func buildCluster(t *testing.T, n int) (*harness.Cluster, []*pbft.Node) {
	t.Helper()
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("pbft-test"))
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*pbft.Node
	cluster, err := harness.NewCluster(harness.Options{
		N:               n,
		Net:             simnet.DefaultConfig(),
		SaturationDepth: 300,
		SubmitToLeader:  true,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			node, err := pbft.NewNode(pbft.Config{ID: id, Quorum: q, Suite: suite, BatchSize: 50})
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, node)
			return node, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, nodes
}

func TestPBFTExecutesRequests(t *testing.T) {
	cluster, nodes := buildCluster(t, 4)
	cluster.Start()
	res := cluster.MeasureFor(300 * time.Millisecond)
	if res.Confirmed == 0 {
		t.Fatal("nothing executed")
	}
	for _, node := range nodes {
		if node.Stats().ExecutedRequests == 0 {
			t.Errorf("replica %d executed nothing", node.ID())
		}
	}
	t.Logf("n=4 executed=%d throughput=%.0f req/s", res.Confirmed, res.Throughput)
}

func TestPBFTAllReplicasAgreeOnOrder(t *testing.T) {
	const n = 7
	logs := make([][]types.SeqNum, n)
	q, _ := types.NewQuorumParams(n)
	suite, err := crypto.NewEd25519Suite(n, []byte("pbft-order"))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := harness.NewCluster(harness.Options{
		N:               n,
		Net:             simnet.DefaultConfig(),
		SaturationDepth: 200,
		SubmitToLeader:  true,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			return pbft.NewNode(pbft.Config{ID: id, Quorum: q, Suite: suite, BatchSize: 25})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cluster.Replicas {
		idx := i
		cluster.Replicas[i].SetExecutor(func(sn types.SeqNum, reqs []types.Request) {
			logs[idx] = append(logs[idx], sn)
		})
	}
	cluster.Start()
	cluster.MeasureFor(200 * time.Millisecond)

	if len(logs[0]) == 0 {
		t.Fatal("replica 0 executed nothing")
	}
	// Sequence numbers must be strictly increasing and consistent across
	// replicas on the common prefix.
	for i, l := range logs {
		for j := 1; j < len(l); j++ {
			if l[j] != l[j-1]+1 {
				t.Fatalf("replica %d executed out of order: %v", i, l[:j+1])
			}
		}
	}
}

func TestPBFTQuadraticVoteTraffic(t *testing.T) {
	// PBFT's defining cost: prepare/commit votes are all-to-all, so the
	// per-replica vote traffic *per decision* grows linearly with n
	// (unlike Leopard/HotStuff, whose vote collection is linear overall).
	// Votes per executed batch do not depend on the window, and simulating
	// n=16 costs ~40 s of wall time per virtual second, so it is short.
	measure := func(n int) float64 {
		cluster, nodes := buildCluster(t, n)
		cluster.Start()
		cluster.Warmup(50 * time.Millisecond)
		cluster.MeasureFor(100 * time.Millisecond)
		votes := cluster.NonLeaderStats().Received[transport.ClassVote]
		batches := nodes[0].Stats().ExecutedBatches
		if batches == 0 {
			t.Fatalf("n=%d executed nothing", n)
		}
		return float64(votes) / float64(batches)
	}
	small := measure(4)
	big := measure(16)
	t.Logf("votes per batch: %.0f (n=4) vs %.0f (n=16)", small, big)
	// n-1 grows 3 -> 15 (5x); allow slack for boundary effects.
	if big < 3*small {
		t.Errorf("per-decision vote traffic did not grow with n: %.0f (n=4) vs %.0f (n=16)", small, big)
	}
}

func TestPBFTConfigValidation(t *testing.T) {
	q, _ := types.NewQuorumParams(4)
	suite, _ := crypto.NewEd25519Suite(4, []byte("x"))
	if _, err := pbft.NewNode(pbft.Config{ID: 9, Quorum: q, Suite: suite}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := pbft.NewNode(pbft.Config{ID: 0, Quorum: q}); err == nil {
		t.Error("missing suite accepted")
	}
	if _, err := pbft.NewNode(pbft.Config{ID: 0, Quorum: types.QuorumParams{}}); err == nil {
		t.Error("invalid quorum accepted")
	}
}
