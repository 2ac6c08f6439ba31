package hotstuff_test

import (
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/hotstuff"
	"leopard/internal/protocol"
	"leopard/internal/simnet"
	"leopard/internal/transport"
	"leopard/internal/types"
)

func buildCluster(t *testing.T, n int) *harness.Cluster {
	t.Helper()
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("hs-test-seed"))
	if err != nil {
		t.Fatal(err)
	}
	netCfg := simnet.DefaultConfig()
	netCfg.TickInterval = 2 * time.Millisecond
	cluster, err := harness.NewCluster(harness.Options{
		N:               n,
		Net:             netCfg,
		PayloadSize:     128,
		SaturationDepth: 400,
		SubmitToLeader:  true,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			return hotstuff.NewNode(hotstuff.Config{ID: id, Quorum: q, Suite: suite, BatchSize: 100})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

func TestHotStuffCommitsRequests(t *testing.T) {
	cluster := buildCluster(t, 4)
	cluster.Start()
	res := cluster.MeasureFor(2 * time.Second)
	if res.Confirmed == 0 {
		t.Fatalf("no requests committed in %v", res.Elapsed)
	}
	t.Logf("n=4 committed=%d throughput=%.0f req/s meanLat=%v", res.Confirmed, res.Throughput, res.MeanLat)
}

func TestHotStuffAllReplicasAgree(t *testing.T) {
	const n = 7
	counts := make([]int64, n)
	q, _ := types.NewQuorumParams(n)
	suite, err := crypto.NewEd25519Suite(n, []byte("hs-agree"))
	if err != nil {
		t.Fatal(err)
	}
	netCfg := simnet.DefaultConfig()
	cluster, err := harness.NewCluster(harness.Options{
		N:               n,
		Net:             netCfg,
		SaturationDepth: 300,
		SubmitToLeader:  true,
		Build: func(id types.ReplicaID) (protocol.Replica, error) {
			node, err := hotstuff.NewNode(hotstuff.Config{ID: id, Quorum: q, Suite: suite, BatchSize: 50})
			if err != nil {
				return nil, err
			}
			return node, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cluster.Replicas {
		id := i
		cluster.Replicas[i].SetExecutor(func(sn types.SeqNum, reqs []types.Request) {
			counts[id] += int64(len(reqs))
		})
	}
	cluster.Start()
	cluster.MeasureFor(1500 * time.Millisecond)
	if counts[0] == 0 {
		t.Fatal("leader committed nothing")
	}
	// All replicas commit the same requests modulo pipeline lag: require
	// every replica to be within one batch round of the max.
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, c := range counts {
		if max-c > 3*50 {
			t.Errorf("replica %d lags: committed %d of %d", i, c, max)
		}
	}
}

// TestBatchFormVoteCannotStallQC: VerifyShare accepts a share in
// crypto.SignBatch's form, but Combine refuses it. A Byzantine follower
// that votes in that form must not be counted, or its share would sit in
// the block's vote set and fail every Combine: the QC would never form.
func TestBatchFormVoteCannotStallQC(t *testing.T) {
	const n = 4
	q, err := types.NewQuorumParams(n)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(n, []byte("hs-batch-vote"))
	if err != nil {
		t.Fatal(err)
	}
	leaderID := types.LeaderOf(1, n)
	leader, err := hotstuff.NewNode(hotstuff.Config{ID: leaderID, Quorum: q, Suite: suite, BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	proposals := func(out *transport.SliceSink) []*hotstuff.ProposalMsg {
		var ps []*hotstuff.ProposalMsg
		for _, env := range out.Envelopes {
			if p, ok := env.Msg.(*hotstuff.ProposalMsg); ok {
				ps = append(ps, p)
			}
		}
		return ps
	}

	var out transport.SliceSink
	leader.SubmitSigned(0, types.Request{ClientID: 1, Seq: 1, Payload: []byte("req")}, nil)
	leader.Tick(20*time.Millisecond, &out)
	ps := proposals(&out)
	if len(ps) != 1 {
		t.Fatalf("leader made %d proposals, want 1", len(ps))
	}
	digest := ps[0].Digest
	out.Reset()

	var followers []types.ReplicaID
	for id := types.ReplicaID(0); id < n; id++ {
		if id != leaderID {
			followers = append(followers, id)
		}
	}
	// The Byzantine vote arrives first, so the plain votes that follow
	// reach the quorum with it already in the set.
	byz := followers[0]
	batch, err := crypto.SignBatch(suite, byz, []types.Hash{digest, crypto.HashBytes([]byte("other"))})
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.VerifyShare(digest, batch[0]); err != nil {
		t.Fatalf("batch-form share does not verify: %v", err)
	}
	leader.Deliver(21*time.Millisecond, byz, &hotstuff.VoteMsg{BlockHash: digest, Height: 1, Share: batch[0]}, &out)
	for _, id := range followers[1:] {
		share, err := suite.Sign(id, digest)
		if err != nil {
			t.Fatal(err)
		}
		leader.Deliver(22*time.Millisecond, id, &hotstuff.VoteMsg{BlockHash: digest, Height: 1, Share: share}, &out)
	}
	// The QC ships in the next proposal.
	ps = proposals(&out)
	if len(ps) != 1 || ps[0].Block.Justify.BlockHash != digest {
		t.Fatalf("no QC formed for block 1 from the leader's and %d plain votes", len(followers)-1)
	}
}
