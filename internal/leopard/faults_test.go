package leopard_test

import (
	"slices"
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/harness"
	"leopard/internal/leopard"
	"leopard/internal/merkle"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestSelectiveAttackRecoversViaRetrieval reproduces the paper's §IV-A2
// liveness threat: a faulty replica sends its datablocks to only a quorum
// subset, so some honest replicas must recover them through the erasure-
// coded committee retrieval (Alg. 3) before they can vote.
func TestSelectiveAttackRecoversViaRetrieval(t *testing.T) {
	const n = 4 // f = 1, leader of view 1 is replica 1
	r := newRouter(t, n, func(c *leopard.Config) {
		c.RetrievalTimeout = 10 * time.Millisecond
	})
	// Replica 3 is faulty: its datablocks reach only replicas 0, 1, 2 —
	// but wait, that IS everyone at n=4. Use the drop hook instead: its
	// datablocks never reach replica 2. Ready still reaches 2f+1 = 3
	// holders (0, 1, 3), so the leader links them.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		_, isDB := msg.(*leopard.DatablockMsg)
		return isDB && from == 3 && to == 2
	}
	r.submit(3, 30, 0)
	r.advance(300*time.Millisecond, 5*time.Millisecond)

	st2 := r.nodes[2].Stats()
	if st2.Retrievals == 0 {
		t.Fatal("replica 2 never exercised the retrieval path")
	}
	for _, node := range r.nodes {
		if got := node.Stats().ConfirmedRequests; got < 30 {
			t.Errorf("replica %d confirmed %d requests, want >= 30", node.ID(), got)
		}
	}
}

// TestSelectiveAttackHelperHook exercises the harness's SelectiveAttack
// filter across a larger cluster: the faulty replica's datablocks only
// reach a bare quorum, everyone else retrieves.
func TestSelectiveAttackHelperHook(t *testing.T) {
	const n = 7 // f = 2, quorum = 5, leader of view 1 is replica 1
	r := newRouter(t, n, func(c *leopard.Config) {
		c.RetrievalTimeout = 10 * time.Millisecond
	})
	// Faulty replica 2 sends datablocks only to replicas 0,1,3,4 (plus
	// itself = 5 holders = 2f+1, so ready succeeds and the leader links).
	r.filter(harness.SelectiveAttack([]types.ReplicaID{2}, []types.ReplicaID{0, 1, 3, 4}))
	r.submit(2, 20, 0)
	r.advance(400*time.Millisecond, 5*time.Millisecond)

	retrievals := int64(0)
	for _, id := range []types.ReplicaID{5, 6} {
		retrievals += r.nodes[id].Stats().Retrievals
	}
	if retrievals == 0 {
		t.Fatal("excluded replicas never retrieved")
	}
	for _, node := range r.nodes {
		if got := node.Stats().ConfirmedRequests; got < 20 {
			t.Errorf("replica %d confirmed %d, want >= 20", node.ID(), got)
		}
	}
}

// TestReadyRoundBlocksUnderdisseminatedDatablocks: with the ready round ON
// (the paper's design), a datablock held by fewer than 2f+1 replicas is
// never linked, so no instance can stall on it — progress elsewhere
// continues and no view change fires.
func TestReadyRoundBlocksUnderdisseminatedDatablocks(t *testing.T) {
	const n = 4
	r := newRouter(t, n, func(c *leopard.Config) {
		c.ViewChangeTimeout = 100 * time.Millisecond
	})
	// Faulty replica 3 sends its datablocks to the leader only: holders =
	// {1 (leader), 3} = 2 < quorum 3, so ready never completes.
	r.filter(harness.SelectiveAttack([]types.ReplicaID{3}, []types.ReplicaID{1}))
	r.submit(3, 10, 0) // requests that will never confirm
	r.submit(2, 10, 5000)
	r.advance(300*time.Millisecond, 5*time.Millisecond)

	// Replica 2's requests confirm; replica 3's never do; no view change.
	st := r.nodes[0].Stats()
	if st.ConfirmedRequests != 10 {
		t.Errorf("confirmed %d requests, want exactly 10 (only the honest batch)", st.ConfirmedRequests)
	}
	if st.ViewChanges != 0 {
		t.Errorf("unnecessary view change fired (%d)", st.ViewChanges)
	}
}

// TestAblationNoReadyRoundStalls (A2): with the ready round disabled, the
// leader links an under-disseminated datablock; honest replicas cannot
// retrieve it (fewer than f+1 honest holders) and the view change fires.
func TestAblationNoReadyRoundStalls(t *testing.T) {
	const n = 4
	r := newRouter(t, n, func(c *leopard.Config) {
		c.DisableReadyRound = true
		c.ViewChangeTimeout = 100 * time.Millisecond
		c.RetrievalTimeout = 10 * time.Millisecond
	})
	// Faulty replica 3 sends its datablock to the leader only. Without the
	// ready round the leader links it immediately; replicas 0 and 2 cannot
	// recover it: responders = leader only (1 chunk < f+1 = 2).
	r.filter(harness.SelectiveAttack([]types.ReplicaID{3}, []types.ReplicaID{1}))
	r.submit(3, 10, 0)
	r.advance(1200*time.Millisecond, 5*time.Millisecond)

	vcSeen := false
	for _, node := range r.nodes {
		if node.View() > 1 {
			vcSeen = true
		}
	}
	if !vcSeen {
		t.Fatal("expected the selective attack to force a view change when the ready round is disabled")
	}
}

// TestViewChangeOnSilentLeader: the leader goes silent; replicas time out,
// run the view change, and the next leader resumes confirmations.
func TestViewChangeOnSilentLeader(t *testing.T) {
	const n = 4
	r := newRouter(t, n, func(c *leopard.Config) {
		c.ViewChangeTimeout = 50 * time.Millisecond
	})
	r.silence(1) // leader of view 1
	r.submit(2, 30, 0)
	r.submit(3, 30, 0)
	r.advance(2*time.Second, 5*time.Millisecond)

	for _, node := range r.nodes {
		if node.ID() == 1 {
			continue
		}
		if node.View() < 2 {
			t.Errorf("replica %d still in view %d", node.ID(), node.View())
		}
		if got := node.Stats().ConfirmedRequests; got < 60 {
			t.Errorf("replica %d confirmed %d requests after view change, want >= 60", node.ID(), got)
		}
	}
	// The new leader must be replica 2 (view 2 mod 4).
	if got := r.nodes[0].Leader(); got != 2 {
		t.Errorf("leader after view change = %d, want 2", got)
	}
}

// TestViewChangeCarriesNotarizedBlocks: blocks notarized before the leader
// dies must survive into the new view and eventually confirm (Lemma 2).
// Their datablocks are linked there and nowhere else: the holders announce
// them again on entering the view, because no block linking them has
// confirmed, and a new leader that took them into a fresh block too would
// execute their requests twice, or never, once the checkpoint past the
// first link released the bodies.
func TestViewChangeCarriesNotarizedBlocks(t *testing.T) {
	const n = 4
	r := newRouter(t, n, func(c *leopard.Config) {
		c.ViewChangeTimeout = 50 * time.Millisecond
		c.CheckpointEvery = 1
	})
	// Drop all round-2 proofs from the leader: blocks notarize but never
	// confirm, then the leader is silenced.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		p, ok := msg.(*leopard.ProofMsg)
		return ok && p.Round == 2 && from == 1
	}
	r.submit(2, 10, 0)
	r.advance(30*time.Millisecond, 5*time.Millisecond)
	r.silence(1)
	r.advance(time.Second, 5*time.Millisecond)
	r.submit(3, 10, 0)
	r.advance(time.Second, 5*time.Millisecond)

	for _, id := range []types.ReplicaID{0, 2, 3} {
		node := r.nodes[id]
		if node.View() < 2 {
			t.Fatalf("replica %d still in view %d", id, node.View())
		}
		if got := node.Stats().ConfirmedRequests; got != 20 {
			t.Errorf("replica %d executed %d requests, want each of the 20 once (notarized work lost or linked twice)", id, got)
		}
		if got := node.PendingRequests(); got != 0 {
			t.Errorf("replica %d still holds %d unexecuted requests", id, got)
		}
	}
}

// TestViewChangeDropsDiscardedWaits: an instance that waits on a datablock
// it does not hold registers a retrieval entry. When a view change discards
// the instance and nothing links the digest again, the entry must go with
// it, or the replica broadcasts a query for the digest every
// 8 × RetrievalTimeout for the rest of its life.
func TestViewChangeDropsDiscardedWaits(t *testing.T) {
	const n = 4
	const retrieval = 10 * time.Millisecond
	r := newRouter(t, n, func(c *leopard.Config) {
		c.ViewChangeTimeout = 50 * time.Millisecond
		c.RetrievalTimeout = retrieval
	})
	// View 1's leader proposes a block linking a datablock nobody has, and
	// then goes silent.
	leader := r.nodes[0].Leader()
	ghost := types.Hash{0x6f, 0x57}
	block := &types.BFTblock{View: 1, Seq: 1, Content: []types.Hash{ghost}}
	share, err := mustSign(r, leader, crypto.HashBFTblock(block))
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range r.nodes {
		if node.ID() != leader {
			r.enqueue(leader, []transport.Envelope{transport.Unicast(node.ID(), &leopard.BFTblockMsg{Block: block, LeaderShare: share})})
		}
	}
	r.flush()
	r.silence(leader)
	r.submit(2, 10, 0)
	r.submit(3, 10, 0)
	for r.nodes[0].View() < 2 || r.nodes[2].View() < 2 || r.nodes[3].View() < 2 {
		if r.now > 5*time.Second {
			t.Fatal("no view change")
		}
		r.tickAll(5 * time.Millisecond)
		r.flush()
	}
	for end := r.now + 10*retrieval; r.now < end; {
		for _, env := range r.tickAll(5 * time.Millisecond) {
			if q, ok := env.Msg.(*leopard.QueryMsg); ok && slices.Contains(q.Digests, ghost) {
				t.Fatalf("at %v a replica still queries the digest only the discarded instance linked", r.now)
			}
		}
		r.flush()
	}
	for _, node := range r.nodes {
		if node.ID() != leader && node.Retrieving(ghost) {
			t.Errorf("replica %d keeps a retrieval entry nothing waits on", node.ID())
		}
	}
}

// TestSafetyAcrossViewChange: logs of all honest replicas agree position-
// by-position even after a view change.
func TestSafetyAcrossViewChange(t *testing.T) {
	const n = 4
	r := newRouter(t, n, func(c *leopard.Config) {
		c.ViewChangeTimeout = 50 * time.Millisecond
	})
	r.submit(2, 20, 0)
	r.advance(50*time.Millisecond, 5*time.Millisecond)
	r.silence(1)
	r.submit(3, 20, 0)
	r.advance(2*time.Second, 5*time.Millisecond)

	honest := []types.ReplicaID{0, 2, 3}
	var min types.SeqNum
	for i, id := range honest {
		if e := r.nodes[id].ExecutedTo(); i == 0 || e < min {
			min = e
		}
	}
	if min == 0 {
		t.Fatal("nothing executed after view change")
	}
	for sn := types.SeqNum(1); sn <= min; sn++ {
		ref, ok := r.nodes[0].LogBlock(sn)
		if !ok {
			t.Fatalf("replica 0 missing block %d", sn)
		}
		for _, id := range honest[1:] {
			b, ok := r.nodes[id].LogBlock(sn)
			if !ok {
				t.Fatalf("replica %d missing block %d", id, sn)
			}
			if crypto.HashBFTblock(b) != crypto.HashBFTblock(ref) {
				t.Fatalf("safety violation at sn=%d after view change", sn)
			}
		}
	}
}

// TestCheckpointAdvancesWatermarkAndPrunes: long runs must not accumulate
// unbounded datablocks — the checkpoint protocol garbage-collects them.
func TestCheckpointAdvancesWatermarkAndPrunes(t *testing.T) {
	r := newRouter(t, 4, func(c *leopard.Config) {
		c.MaxParallel = 8
		c.CheckpointEvery = 4
		c.DatablockSize = 5
		c.BFTBlockSize = 1
	})
	for round := 0; round < 10; round++ {
		r.submit(2, 25, uint64(round*25))
		r.advance(50*time.Millisecond, 5*time.Millisecond)
	}
	for _, node := range r.nodes {
		st := node.Stats()
		if st.ExecutedBlocks < 8 {
			t.Fatalf("replica %d executed only %d blocks", node.ID(), st.ExecutedBlocks)
		}
		// 50 datablocks were produced in total; with checkpoints every 4
		// blocks, the pool must have been pruned well below that.
		if st.DatablocksHeld > 20 {
			t.Errorf("replica %d still holds %d datablocks; checkpoint GC not working", node.ID(), st.DatablocksHeld)
		}
		// Executed block headers below the watermark are GC'd with the rest
		// (regression: the confirmed log used to grow for the node's
		// lifetime).
		if st.LastCheckpointSeq < 1 {
			t.Fatalf("replica %d formed no checkpoint", node.ID())
		}
		if _, ok := node.LogBlock(1); ok {
			t.Errorf("replica %d still holds the executed block header at sn=1 below the watermark", node.ID())
		}
	}
}

// TestRetrievalRejectsTamperedChunk: a response whose chunk fails the
// Merkle check, or whose index does not match the responder, is discarded.
func TestRetrievalRejectsTamperedChunk(t *testing.T) {
	const n = 4
	r := newRouter(t, n, func(c *leopard.Config) {
		c.RetrievalTimeout = 5 * time.Millisecond
	})
	// Make replica 2 miss a datablock that gets linked.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		_, isDB := msg.(*leopard.DatablockMsg)
		return isDB && from == 3 && to == 2
	}
	r.submit(3, 10, 0)
	// Also intercept responses to tamper with them: drop genuine responses
	// to replica 2 and inject a forged one.
	sawResp := false
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if db, isDB := msg.(*leopard.DatablockMsg); isDB && from == 3 && to == 2 {
			_ = db
			return true
		}
		if resp, isResp := msg.(*leopard.RespMsg); isResp && to == 2 {
			sawResp = true
			// Deliver a tampered copy instead: flipped chunk byte.
			bad := *resp
			bad.Chunk = append([]byte(nil), resp.Chunk...)
			if len(bad.Chunk) > 0 {
				bad.Chunk[0] ^= 0xff
			}
			deliver(r.nodes[2], r.now, from, &bad)
			return true
		}
		return false
	}
	r.advance(200*time.Millisecond, 5*time.Millisecond)
	if !sawResp {
		t.Fatal("no retrieval responses were generated")
	}
	if got := r.nodes[2].Stats().Retrievals; got != 0 {
		t.Fatalf("replica 2 accepted %d retrievals from tampered chunks", got)
	}
}

// TestRetrievalWrongIndexRejected: a responder must serve the chunk at its
// own replica index; anything else is ignored.
func TestRetrievalWrongIndexRejected(t *testing.T) {
	const n = 4
	r := newRouter(t, n, nil)
	// Build a valid response from replica 0's perspective but with a
	// mismatched sender: deliver it claiming to be from replica 3.
	db := &types.Datablock{Ref: types.DatablockRef{Generator: 0, Counter: 1},
		Requests: []types.Request{{ClientID: 1, Seq: 1, Payload: []byte("zz")}}}
	digest := crypto.HashDatablock(db)
	// Node 2 is waiting for this digest.
	block := &types.BFTblock{View: 1, Seq: 1, Content: []types.Hash{digest}}
	bd := crypto.HashBFTblock(block)
	share, _ := r.nodes[2].Leader(), bd
	_ = share
	leaderShare, err := mustSign(r, r.nodes[2].Leader(), bd)
	if err != nil {
		t.Fatal(err)
	}
	deliver(r.nodes[2], r.now, r.nodes[2].Leader(), &leopard.BFTblockMsg{Block: block, LeaderShare: leaderShare})

	resp := &leopard.RespMsg{Digest: digest, Root: types.Hash{1}, Chunk: []byte("junk"), Index: 0, Proof: merkle.Proof{Index: 0}, DataLen: 10}
	deliver(r.nodes[2], r.now, 3, resp) // index 0 but sender 3
	if got := r.nodes[2].Stats().Retrievals; got != 0 {
		t.Fatalf("wrong-index response accepted: %d retrievals", got)
	}
}

// mustSign signs a digest with the given replica's key from the router's
// shared suite (all router nodes share one dealer suite).
func mustSign(r *router, id types.ReplicaID, digest types.Hash) (crypto.Share, error) {
	suite, err := crypto.NewEd25519Suite(len(r.nodes), []byte("router-seed"))
	if err != nil {
		return crypto.Share{}, err
	}
	return suite.Sign(id, digest)
}

// TestCrashFaultToleranceF: with f replicas silenced (non-leader), the
// remaining 2f+1 still confirm requests.
func TestCrashFaultToleranceF(t *testing.T) {
	const n = 7 // f = 2
	r := newRouter(t, n, nil)
	r.silence(5, 6)
	r.submit(2, 30, 0)
	r.submit(3, 30, 0)
	r.advance(300*time.Millisecond, 5*time.Millisecond)
	for _, id := range []types.ReplicaID{0, 1, 2, 3, 4} {
		if got := r.nodes[id].Stats().ConfirmedRequests; got < 60 {
			t.Errorf("replica %d confirmed %d with f crashed, want >= 60", id, got)
		}
	}
}

// TestFPlusOneCrashesStall: beyond the resilience bound (f+1 silent
// non-leaders), confirmation must stop — the quorum is unreachable.
func TestFPlusOneCrashesStall(t *testing.T) {
	const n = 4 // f = 1, quorum = 3
	r := newRouter(t, n, nil)
	r.silence(2, 3) // f+1 = 2 silent
	r.submit(2, 10, 0)
	r.advance(300*time.Millisecond, 5*time.Millisecond)
	if got := r.nodes[0].Stats().ConfirmedRequests; got != 0 {
		t.Errorf("confirmed %d requests with f+1 faults; the bound says 0", got)
	}
}
