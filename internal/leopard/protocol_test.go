package leopard_test

import (
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestNormalCaseConfirms drives the normal case end to end over the
// synchronous router: requests -> datablocks -> ready -> BFTblock -> two
// voting rounds -> confirmed and executed on every replica.
func TestNormalCaseConfirms(t *testing.T) {
	r := newRouter(t, 4, nil)
	// Leader of view 1 is replica 1 (v mod n); clients submit to the
	// non-leader replicas 2 and 3.
	r.submit(2, 20, 0)
	r.submit(3, 20, 0)
	r.advance(100*time.Millisecond, 5*time.Millisecond)

	for _, node := range r.nodes {
		st := node.Stats()
		if st.ConfirmedRequests < 40 {
			t.Errorf("replica %d confirmed %d requests, want >= 40", node.ID(), st.ConfirmedRequests)
		}
		if node.ExecutedTo() == 0 {
			t.Errorf("replica %d executed nothing", node.ID())
		}
	}
}

// TestSafetyLogsIdentical checks the paper's safety property: the blocks at
// every executed position are identical across honest replicas.
func TestSafetyLogsIdentical(t *testing.T) {
	r := newRouter(t, 7, nil)
	for i := 1; i < 7; i++ {
		r.submit(types.ReplicaID(i), 50, 0)
	}
	r.advance(200*time.Millisecond, 5*time.Millisecond)

	min := r.nodes[0].ExecutedTo()
	for _, node := range r.nodes[1:] {
		if node.ExecutedTo() < min {
			min = node.ExecutedTo()
		}
	}
	if min == 0 {
		t.Fatal("no blocks executed")
	}
	for sn := types.SeqNum(1); sn <= min; sn++ {
		ref, ok := r.nodes[0].LogBlock(sn)
		if !ok {
			t.Fatalf("replica 0 missing log block %d", sn)
		}
		refDigest := crypto.HashBFTblock(ref)
		for _, node := range r.nodes[1:] {
			b, ok := node.LogBlock(sn)
			if !ok {
				t.Fatalf("replica %d missing log block %d", node.ID(), sn)
			}
			if crypto.HashBFTblock(b) != refDigest {
				t.Fatalf("safety violation: logs differ at sn=%d between replicas 0 and %d", sn, node.ID())
			}
		}
	}
}

// TestExecutionOrderIsSequential verifies executor callbacks arrive in
// strictly increasing serial-number order with no gaps.
func TestExecutionOrderIsSequential(t *testing.T) {
	r := newRouter(t, 4, nil)
	var seqs []types.SeqNum
	r.nodes[3].SetExecutor(func(sn types.SeqNum, reqs []types.Request) {
		seqs = append(seqs, sn)
	})
	r.submit(2, 40, 0)
	r.advance(150*time.Millisecond, 5*time.Millisecond)
	if len(seqs) == 0 {
		t.Fatal("executor never invoked")
	}
	last := types.SeqNum(0)
	for _, sn := range seqs {
		if sn != last && sn != last+1 {
			t.Fatalf("execution out of order: %v", seqs)
		}
		last = sn
	}
}

// TestLeaderEquivocationRejected feeds a replica two different proposals
// for the same serial number; it must vote for at most one.
func TestLeaderEquivocationRejected(t *testing.T) {
	const n = 4
	q, _ := types.NewQuorumParams(n)
	suite, err := crypto.NewEd25519Suite(n, []byte("equivocate"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := leopard.NewNode(leopard.Config{ID: 2, Quorum: q, Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(0, transport.Discard)
	leaderID := node.Leader()

	mkProposal := func(content types.Hash) *leopard.BFTblockMsg {
		block := &types.BFTblock{View: 1, Seq: 1, Content: []types.Hash{content}}
		digest := crypto.HashBFTblock(block)
		share, err := suite.Sign(leaderID, digest)
		if err != nil {
			t.Fatal(err)
		}
		return &leopard.BFTblockMsg{Block: block, LeaderShare: share}
	}
	// Give the node the datablocks so it can vote immediately.
	dbA := &types.Datablock{Ref: types.DatablockRef{Generator: 0, Counter: 1}}
	dbB := &types.Datablock{Ref: types.DatablockRef{Generator: 3, Counter: 1}}
	hA, hB := crypto.HashDatablock(dbA), crypto.HashDatablock(dbB)
	deliver(node, 0, 0, &leopard.DatablockMsg{Block: dbA, Digest: hA})
	deliver(node, 0, 3, &leopard.DatablockMsg{Block: dbB, Digest: hB})

	countVotes := func(outs []transport.Envelope) int {
		votes := 0
		for _, env := range outs {
			if v, ok := env.Msg.(*leopard.VoteMsg); ok && v.Round == 1 {
				votes++
			}
		}
		return votes
	}
	first := countVotes(deliver(node, 0, leaderID, mkProposal(hA)))
	second := countVotes(deliver(node, 0, leaderID, mkProposal(hB)))
	if first != 1 {
		t.Fatalf("first proposal produced %d votes, want 1", first)
	}
	if second != 0 {
		t.Fatal("replica voted for an equivocating proposal with the same serial number")
	}
}

// TestProposalFromNonLeaderIgnored ensures only the view leader can open
// agreement instances.
func TestProposalFromNonLeaderIgnored(t *testing.T) {
	const n = 4
	q, _ := types.NewQuorumParams(n)
	suite, err := crypto.NewEd25519Suite(n, []byte("nonleader"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := leopard.NewNode(leopard.Config{ID: 2, Quorum: q, Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(0, transport.Discard)
	imposter := types.ReplicaID(3) // leader of view 1 is 1 (v mod n)
	if imposter == node.Leader() {
		t.Fatal("test setup: imposter is the leader")
	}
	block := &types.BFTblock{View: 1, Seq: 1}
	digest := crypto.HashBFTblock(block)
	share, _ := suite.Sign(imposter, digest)
	outs := deliver(node, 0, imposter, &leopard.BFTblockMsg{Block: block, LeaderShare: share})
	for _, env := range outs {
		if _, ok := env.Msg.(*leopard.VoteMsg); ok {
			t.Fatal("replica voted on a non-leader proposal")
		}
	}
}

// TestForgedLeaderShareRejected: a proposal whose embedded share does not
// verify must not be voted on.
func TestForgedLeaderShareRejected(t *testing.T) {
	const n = 4
	q, _ := types.NewQuorumParams(n)
	suite, err := crypto.NewEd25519Suite(n, []byte("forged"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := leopard.NewNode(leopard.Config{ID: 2, Quorum: q, Suite: suite})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(0, transport.Discard)
	block := &types.BFTblock{View: 1, Seq: 1}
	bad := crypto.Share{Signer: node.Leader(), Sig: make([]byte, 64)}
	outs := deliver(node, 0, node.Leader(), &leopard.BFTblockMsg{Block: block, LeaderShare: bad})
	for _, env := range outs {
		if _, ok := env.Msg.(*leopard.VoteMsg); ok {
			t.Fatal("replica voted despite a forged leader share")
		}
	}
}

// TestDatablockGeneratorSpoofRejected: datablocks claiming another replica
// as generator are dropped (channels are authenticated).
func TestDatablockGeneratorSpoofRejected(t *testing.T) {
	r := newRouter(t, 4, nil)
	spoofed := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 2, Counter: 1},
		Requests: []types.Request{{ClientID: 1, Seq: 1, Payload: []byte("x")}},
	}
	digest := crypto.HashDatablock(spoofed)
	// Replica 3 sends a datablock that claims replica 2 generated it.
	outs := deliver(r.nodes[0], r.now, 3, &leopard.DatablockMsg{Block: spoofed, Digest: digest})
	if len(outs) != 0 {
		t.Fatal("spoofed datablock was accepted (produced output)")
	}
	if _, ok := r.nodes[0].Datablock(digest); ok {
		t.Fatal("spoofed datablock entered the pool")
	}
}

// TestDuplicateCounterIgnored: a second datablock reusing (generator,
// counter) must not be admitted (Alg. 1's repetitive-counter rule).
func TestDuplicateCounterIgnored(t *testing.T) {
	r := newRouter(t, 4, nil)
	db1 := &types.Datablock{Ref: types.DatablockRef{Generator: 2, Counter: 9},
		Requests: []types.Request{{ClientID: 1, Seq: 1, Payload: []byte("a")}}}
	db2 := &types.Datablock{Ref: types.DatablockRef{Generator: 2, Counter: 9},
		Requests: []types.Request{{ClientID: 1, Seq: 2, Payload: []byte("b")}}}
	h1, h2 := crypto.HashDatablock(db1), crypto.HashDatablock(db2)
	deliver(r.nodes[0], r.now, 2, &leopard.DatablockMsg{Block: db1, Digest: h1})
	deliver(r.nodes[0], r.now, 2, &leopard.DatablockMsg{Block: db2, Digest: h2})
	if _, ok := r.nodes[0].Datablock(h1); !ok {
		t.Fatal("first datablock missing")
	}
	if _, ok := r.nodes[0].Datablock(h2); ok {
		t.Fatal("duplicate-counter datablock admitted")
	}
}

// TestReleasedDatablockNotReplayed: the repetitive-counter rule outlives
// garbage collection. After a stable checkpoint has released a datablock,
// its generator sends it again; no replica may pool it, and so none links
// or executes its requests a second time.
func TestReleasedDatablockNotReplayed(t *testing.T) {
	const generator = types.ReplicaID(2)
	r := newRouter(t, 4, func(c *leopard.Config) {
		c.MaxParallel = 4
		c.CheckpointEvery = 2
	})
	var first *leopard.DatablockMsg
	r.drop = func(from, _ types.ReplicaID, msg transport.Message) bool {
		if m, ok := msg.(*leopard.DatablockMsg); ok && from == generator && first == nil {
			first = m
		}
		return false
	}
	for i := 0; i < 4; i++ {
		r.submit(generator, 10, uint64(10*i))
		r.advance(50*time.Millisecond, 5*time.Millisecond)
	}
	if first == nil {
		t.Fatal("the generator sent no datablock")
	}
	executed := make([]int64, len(r.nodes))
	for i, node := range r.nodes {
		st := node.Stats()
		if st.LastCheckpointSeq < 2 || st.ConfirmedRequests != 40 {
			t.Fatalf("replica %d: checkpoint %d, %d requests executed; want at least 2 and 40", i, st.LastCheckpointSeq, st.ConfirmedRequests)
		}
		if _, held := node.Datablock(first.Digest); held {
			t.Fatalf("replica %d still holds the first datablock after the checkpoint", i)
		}
		executed[i] = st.ConfirmedRequests
	}

	r.enqueue(generator, []transport.Envelope{transport.Broadcast(first)})
	r.flush()
	r.advance(200*time.Millisecond, 5*time.Millisecond)
	for i, node := range r.nodes {
		if _, held := node.Datablock(first.Digest); held {
			t.Errorf("replica %d pooled the replayed datablock", i)
		}
		if got := node.Stats().ConfirmedRequests; got != executed[i] {
			t.Errorf("replica %d executed %d requests after the replay, want %d", i, got, executed[i])
		}
	}
}

// TestWatermarkWindowEnforced: proposals outside (lw, lw+k] are ignored.
func TestWatermarkWindowEnforced(t *testing.T) {
	const n = 4
	q, _ := types.NewQuorumParams(n)
	suite, err := crypto.NewEd25519Suite(n, []byte("watermark"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := leopard.NewNode(leopard.Config{ID: 2, Quorum: q, Suite: suite, MaxParallel: 10})
	if err != nil {
		t.Fatal(err)
	}
	node.Start(0, transport.Discard)
	block := &types.BFTblock{View: 1, Seq: 11} // beyond lw + k = 10
	digest := crypto.HashBFTblock(block)
	share, _ := suite.Sign(node.Leader(), digest)
	outs := deliver(node, 0, node.Leader(), &leopard.BFTblockMsg{Block: block, LeaderShare: share})
	for _, env := range outs {
		if _, ok := env.Msg.(*leopard.VoteMsg); ok {
			t.Fatal("replica voted outside the watermark window")
		}
	}
}

// TestIdleSystemStaysQuiet: with no requests there are no proposals, no
// view changes, and no retrievals.
func TestIdleSystemStaysQuiet(t *testing.T) {
	r := newRouter(t, 4, func(c *leopard.Config) {
		c.ViewChangeTimeout = 20 * time.Millisecond
	})
	r.advance(500*time.Millisecond, 5*time.Millisecond)
	for _, node := range r.nodes {
		st := node.Stats()
		if st.ConfirmedBlocks != 0 || st.ViewChanges != 0 || st.Retrievals != 0 {
			t.Errorf("replica %d not idle: %+v", node.ID(), st)
		}
		if node.View() != 1 {
			t.Errorf("replica %d advanced to view %d while idle", node.ID(), node.View())
		}
	}
}

// TestConfirmedRequestsNotRepacked: once confirmed, a duplicate submission
// of the same request is rejected by the mempool.
func TestConfirmedRequestsNotRepacked(t *testing.T) {
	r := newRouter(t, 4, nil)
	r.submit(1, 10, 0)
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	if v := r.nodes[1].SubmitSigned(r.now, types.Request{ClientID: 2, Seq: 999, Payload: []byte("new")}, nil); !v.OK() {
		t.Fatalf("fresh request rejected: %v", v)
	}
	if v := r.nodes[1].SubmitSigned(r.now, types.Request{ClientID: 2, Seq: 0, Payload: make([]byte, 32)}, nil); v.OK() {
		t.Fatal("already-confirmed request re-admitted")
	}
}
