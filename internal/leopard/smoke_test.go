package leopard_test

import (
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/types"
)

// buildCluster wires an n-replica Leopard cluster over simnet with the
// Ed25519 suite and small batches suitable for tests. mutateNet, when
// non-nil, adjusts the network config (e.g. to enable wire fidelity).
func buildCluster(t *testing.T, n int, mutate func(*leopard.Config), mutateNet func(*simnet.Config)) *harness.Cluster {
	t.Helper()
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("test-seed"))
	if err != nil {
		t.Fatal(err)
	}
	netCfg := simnet.DefaultConfig()
	netCfg.TickInterval = 2 * time.Millisecond
	if mutateNet != nil {
		mutateNet(&netCfg)
	}
	cluster, err := harness.NewCluster(harness.Options{
		N:               n,
		Net:             netCfg,
		PayloadSize:     128,
		SaturationDepth: 200,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			cfg := leopard.Config{
				ID:            id,
				Quorum:        q,
				Suite:         suite,
				DatablockSize: 50,
				BFTBlockSize:  4,
			}
			if mutate != nil {
				mutate(&cfg)
			}
			return leopard.NewNode(cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

func TestSmokeConfirmsRequests(t *testing.T) {
	cluster := buildCluster(t, 4, nil, nil)
	cluster.Start()
	res := cluster.MeasureFor(2 * time.Second)
	if res.Confirmed == 0 {
		t.Fatalf("no requests confirmed in %v", res.Elapsed)
	}
	// Fault-free, every replica executes every block itself: none may
	// reach its height by an anchor jump.
	for _, r := range cluster.Replicas {
		if st := r.(*leopard.Node).Stats(); st.SkippedBlocks != 0 || st.ExecutedBlocks == 0 {
			t.Errorf("replica %d skipped %d blocks and executed %d", r.ID(), st.SkippedBlocks, st.ExecutedBlocks)
		}
	}
	t.Logf("n=4 confirmed=%d throughput=%.0f req/s meanLat=%v", res.Confirmed, res.Throughput, res.MeanLat)
}

// TestSmokeConfirmsRequestsWireFidelity runs the same cluster with every
// message round-tripped through the real wire codec before delivery, so the
// zero-copy decode path and the canonical-frame checks are exercised under
// a full protocol workload (not just hand-built frames).
func TestSmokeConfirmsRequestsWireFidelity(t *testing.T) {
	cluster := buildCluster(t, 4, nil, func(cfg *simnet.Config) {
		cfg.Codec = leopard.WireCodec{}
	})
	cluster.Start()
	res := cluster.MeasureFor(2 * time.Second)
	if res.Confirmed == 0 {
		t.Fatalf("no requests confirmed over the wire codec in %v", res.Elapsed)
	}
	t.Logf("n=4 wire-fidelity confirmed=%d throughput=%.0f req/s meanLat=%v", res.Confirmed, res.Throughput, res.MeanLat)
}
