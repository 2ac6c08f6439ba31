package leopard_test

import (
	"testing"
	"time"

	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// TestForgedProofRejected: a confirmation proof that does not verify must
// not confirm a block.
func TestForgedProofRejected(t *testing.T) {
	r := newRouter(t, 4, nil)
	r.submit(2, 10, 0)
	// Intercept the leader's round-2 proof and corrupt it before delivery
	// to replica 0; also suppress the genuine copy.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		p, ok := msg.(*leopard.ProofMsg)
		if !ok || p.Round != 2 || to != 0 {
			return false
		}
		bad := *p
		bad.Proof = crypto.Proof{Sig: append([]byte(nil), p.Proof.Sig...)}
		if len(bad.Proof.Sig) > 0 {
			bad.Proof.Sig[0] ^= 0xff
		}
		deliver(r.nodes[0], r.now, from, &bad)
		return true
	}
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	if got := r.nodes[0].Stats().ConfirmedBlocks; got != 0 {
		t.Fatalf("replica 0 confirmed %d blocks from forged proofs", got)
	}
	// The rest of the cluster is unaffected.
	if got := r.nodes[2].Stats().ConfirmedRequests; got < 10 {
		t.Fatalf("replica 2 confirmed only %d", got)
	}
}

// TestReencodedSigma1FromFollowerIgnored: replica 3 withholds its round-1
// vote, then sends σ1 re-encoded with its own share to replicas 0 and 2
// ahead of the leader's copy. Had they taken it, they would vote round 2 on
// another H(σ1) than the leader and replica 3, and σ2 would never reach
// 2f+1. The leader's σ1 has signers 0, 1, 2 and carries their signatures,
// so replica 3 can build two other valid encodings: one with 2f+2 signers,
// which no proof may have, and the 2f+1 signers 0, 2, 3, which only the
// rule that proofs come from the leader refuses. Every block confirms.
func TestReencodedSigma1FromFollowerIgnored(t *testing.T) {
	const byzantine = types.ReplicaID(3)
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	const sigSize = 64
	for _, c := range []struct {
		name     string
		valid    bool // VerifyProof accepts the re-encoding
		reencode func(sigma1 []byte, share []byte) []byte
	}{
		{"signers 0, 1, 2, 3", false, func(sigma1, share []byte) []byte {
			sig := append(append([]byte(nil), sigma1...), share...)
			sig[0] |= 1 << byzantine
			return sig
		}},
		{"signers 0, 2, 3", true, func(sigma1, share []byte) []byte {
			sigs := sigma1[1:]
			sig := []byte{1<<0 | 1<<2 | 1<<byzantine}
			sig = append(sig, sigs[:sigSize]...)
			sig = append(sig, sigs[2*sigSize:3*sigSize]...)
			return append(sig, share...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRouter(t, 4, nil)
			leader := r.nodes[0].Leader()
			forged := 0
			r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
				switch m := msg.(type) {
				case *leopard.VoteMsg:
					return from == byzantine && m.Round == 1
				case *leopard.ProofMsg:
					if from != leader || m.Round != 1 || (to != 0 && to != 2) {
						return false
					}
					if m.Proof.Sig[0] != 0b0111 {
						t.Fatalf("σ1 bitmap %04b, the re-encodings assume signers 0, 1, 2", m.Proof.Sig[0])
					}
					share, err := suite.Sign(byzantine, m.Digest)
					if err != nil {
						t.Fatal(err)
					}
					reencoded := *m
					reencoded.Proof = crypto.Proof{Sig: c.reencode(m.Proof.Sig, share.Sig)}
					if valid := suite.VerifyProof(m.Digest, reencoded.Proof) == nil; valid != c.valid {
						t.Fatalf("VerifyProof accepts the re-encoding: %v, want %v", valid, c.valid)
					}
					forged++
					r.enqueue(to, deliver(r.nodes[to], r.now, byzantine, &reencoded))
				}
				return false
			}
			r.submit(2, 20, 0)
			r.advance(100*time.Millisecond, 5*time.Millisecond)
			if forged == 0 {
				t.Fatal("no σ1 was re-encoded; the test exercised nothing")
			}
			for _, node := range r.nodes {
				if got := node.Stats().ConfirmedRequests; got < 20 {
					t.Errorf("replica %d confirmed %d of 20 requests", node.ID(), got)
				}
			}
		})
	}
}

// TestForgedTimeoutSharesCannotForceViewChange: f+1 timeout messages with
// invalid shares must not drag honest replicas out of the view.
func TestForgedTimeoutSharesCannotForceViewChange(t *testing.T) {
	r := newRouter(t, 4, nil)
	for sender := types.ReplicaID(2); sender <= 3; sender++ {
		forged := &leopard.TimeoutMsg{
			View:  1,
			Share: crypto.Share{Signer: sender, Sig: make([]byte, 64)},
		}
		deliver(r.nodes[0], r.now, sender, forged)
	}
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	if r.nodes[0].View() != 1 || r.nodes[0].InViewChange() {
		t.Fatal("forged timeout shares moved replica 0 out of view 1")
	}
}

// TestNewViewFromWrongLeaderIgnored: only the round-robin leader of the
// target view may announce it.
func TestNewViewFromWrongLeaderIgnored(t *testing.T) {
	r := newRouter(t, 4, nil)
	// Replica 3 (not the leader of view 2, which is replica 2) sends an
	// empty new-view for view 2.
	nv := &leopard.NewViewMsg{NewView: 2}
	deliver(r.nodes[0], r.now, 3, nv)
	if r.nodes[0].View() != 1 {
		t.Fatal("replica accepted a new-view from the wrong leader")
	}
	// Even from the right sender, a new-view without 2f+1 valid
	// view-change messages must be rejected.
	deliver(r.nodes[0], r.now, 2, &leopard.NewViewMsg{NewView: 2})
	if r.nodes[0].View() != 1 {
		t.Fatal("replica accepted a new-view without quorum evidence")
	}
}

// TestQueryServedOncePerRequester: repeated queries for the same digest
// from the same replica are answered at most once per retry period
// (anti-amplification), but a retry after the requester's re-query cadence
// is served again, so a response dropped by a saturated transport is not a
// permanent loss.
func TestQueryServedOncePerRequester(t *testing.T) {
	r := newRouter(t, 4, nil) // RetrievalTimeout = 10ms (router default)
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 2, Counter: 1},
		Requests: []types.Request{{ClientID: 1, Seq: 1, Payload: []byte("q")}},
	}
	digest := crypto.HashDatablock(db)
	deliver(r.nodes[0], r.now, 2, &leopard.DatablockMsg{Block: db, Digest: digest})

	countResponses := func() int {
		count := 0
		for i := 0; i < 5; i++ {
			outs := deliver(r.nodes[0], r.now, 3, &leopard.QueryMsg{Digests: []types.Hash{digest}})
			for _, env := range outs {
				if _, ok := env.Msg.(*leopard.RespMsg); ok {
					count++
				}
			}
		}
		return count
	}
	if count := countResponses(); count != 1 {
		t.Fatalf("served %d responses to repeated queries, want 1", count)
	}
	// A burst inside the cooldown (6×RetrievalTimeout = 60ms) stays
	// suppressed…
	r.now += 10 * time.Millisecond
	if count := countResponses(); count != 0 {
		t.Fatalf("served %d responses inside the cooldown, want 0", count)
	}
	// …but a retry at the protocol's re-query cadence (8×RetrievalTimeout)
	// is answered exactly once more.
	r.now += 80 * time.Millisecond
	if count := countResponses(); count != 1 {
		t.Fatalf("served %d responses after the cooldown, want 1", count)
	}
}

// TestQueryForUnknownDigestIgnored: queries for datablocks we do not hold
// produce no response.
func TestQueryForUnknownDigestIgnored(t *testing.T) {
	r := newRouter(t, 4, nil)
	outs := deliver(r.nodes[0], r.now, 3, &leopard.QueryMsg{Digests: []types.Hash{{0xde, 0xad}}})
	if len(outs) != 0 {
		t.Fatalf("produced %d envelopes for an unknown digest", len(outs))
	}
}

// TestVoteFromImpersonatedSignerRejected: the leader must reject a vote
// whose share claims a different signer than the channel it arrived on.
func TestVoteFromImpersonatedSignerRejected(t *testing.T) {
	const n = 4
	r := newRouter(t, n, nil)
	r.submit(2, 10, 0)
	// Stop round-1 votes from replica 3 and replay them as if replica 0
	// had also cast them (double-counting attack): the leader must not
	// count the same share under two identities.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		v, ok := msg.(*leopard.VoteMsg)
		if !ok || v.Round != 1 || from != 3 {
			return false
		}
		// Deliver the original, then a replay claiming to be from 0.
		deliver(r.nodes[to], r.now, 3, v)
		deliver(r.nodes[to], r.now, 0, v)
		return true
	}
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	// Progress continues (the genuine quorum exists), and safety tests
	// elsewhere ensure no double-counting; here we just require liveness
	// wasn't broken by the replay.
	if got := r.nodes[1].Stats().ConfirmedBlocks; got == 0 {
		t.Fatal("no blocks confirmed under vote-replay attack")
	}
}

// TestCheckpointProofForgeryRejected: an invalid checkpoint certificate
// must not advance the watermark.
func TestCheckpointProofForgeryRejected(t *testing.T) {
	r := newRouter(t, 4, nil)
	forged := &leopard.CheckpointProofMsg{
		Seq:       50,
		StateHash: types.Hash{1},
		Proof:     crypto.Proof{Sig: make([]byte, 300)},
	}
	deliver(r.nodes[0], r.now, 3, forged)
	r.submit(2, 10, 0)
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	// Had the forged checkpoint (seq 50) been accepted, the watermark
	// would exclude new proposals at seq 1.. and nothing would confirm.
	if got := r.nodes[0].Stats().ConfirmedRequests; got < 10 {
		t.Fatalf("forged checkpoint disrupted progress: confirmed %d", got)
	}
}

// TestDeterministicRuns: two identical router schedules produce identical
// protocol outcomes.
func TestDeterministicRuns(t *testing.T) {
	run := func() (types.SeqNum, int64) {
		r := newRouter(t, 4, nil)
		r.submit(2, 30, 0)
		r.submit(3, 30, 0)
		r.advance(150*time.Millisecond, 5*time.Millisecond)
		return r.nodes[0].ExecutedTo(), r.nodes[0].Stats().ConfirmedRequests
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("non-deterministic runs: (%d,%d) vs (%d,%d)", e1, c1, e2, c2)
	}
}

// batchForm re-issues signer's share on digest in the batch form replies
// carry: valid for that digest under Suite.VerifyShare, but not a share
// agreement may count.
func batchForm(t *testing.T, suite crypto.Suite, signer types.ReplicaID, digest types.Hash) crypto.Share {
	t.Helper()
	shares, err := crypto.SignBatch(suite, signer, []types.Hash{digest})
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.VerifyShare(digest, shares[0]); err != nil {
		t.Fatalf("batch-form share does not verify, so the test would prove nothing: %v", err)
	}
	return shares[0]
}

// TestBatchFormVotesAndCheckpointSharesNeverCounted: replica 0 — the lowest
// id, so Combine's sorted quorum would always pick it — sends every vote
// and checkpoint share in batch form. Each verifies for its digest, so a
// collector that checked validity alone would count it and then fail every
// Combine. None may be counted (no certificate names replica 0), and blocks
// must still notarize, confirm and checkpoint from the other 2f+1.
func TestBatchFormVotesAndCheckpointSharesNeverCounted(t *testing.T) {
	const byzantine = types.ReplicaID(0)
	r := newRouter(t, 4, func(cfg *leopard.Config) {
		cfg.MaxParallel = 8
		cfg.CheckpointEvery = 4
	})
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	rewritten := map[string]int{}
	certificates := map[string]int{}
	names := func(kind string, proof crypto.Proof) {
		certificates[kind]++
		// Ed25519Suite proofs open with the signer bitmap.
		if proof.Sig[0]&(1<<byzantine) != 0 {
			t.Errorf("a %s certificate counts the batch-form share of replica %d", kind, byzantine)
		}
	}
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		switch m := msg.(type) {
		case *leopard.VoteMsg:
			if from == byzantine {
				m.Share = batchForm(t, suite, byzantine, m.Digest)
				rewritten[[]string{1: "vote1", 2: "vote2"}[m.Round]]++
			}
		case *leopard.CheckpointMsg:
			if from == byzantine {
				m.Share = batchForm(t, suite, byzantine, leopard.CheckpointDigest(m.Seq, m.StateHash))
				rewritten["checkpoint"]++
			}
		case *leopard.ProofMsg:
			if to == 2 {
				names([]string{1: "sigma1", 2: "sigma2"}[m.Round], m.Proof)
			}
		case *leopard.CheckpointProofMsg:
			if to == 2 {
				names("checkpoint", m.Proof)
			}
		}
		return false
	}
	r.submit(0, 60, 0)
	r.submit(2, 60, 1000)
	r.advance(300*time.Millisecond, 5*time.Millisecond)

	for _, kind := range []string{"vote1", "vote2", "checkpoint"} {
		if rewritten[kind] == 0 {
			t.Fatalf("replica %d sent no %s share; the test exercised nothing", byzantine, kind)
		}
	}
	for _, kind := range []string{"sigma1", "sigma2", "checkpoint"} {
		if certificates[kind] == 0 {
			t.Fatalf("no %s certificate formed from the other 2f+1", kind)
		}
	}
	for _, node := range r.nodes {
		if got := node.Stats().ConfirmedRequests; got < 120 {
			t.Fatalf("replica %d confirmed %d of 120 requests", node.ID(), got)
		}
		if node.Stats().LastCheckpointSeq == 0 {
			t.Fatalf("replica %d has no stable checkpoint", node.ID())
		}
	}
}

// TestBatchFormViewChangeSharesNeverCounted walks one view change by hand
// and offers each of its three signed messages twice: first under a valid
// batch-form share, which must change nothing, then under the plain share,
// which must have the effect the first was denied.
func TestBatchFormViewChangeSharesNeverCounted(t *testing.T) {
	r := newRouter(t, 4, nil)
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	plain := func(signer types.ReplicaID, digest types.Hash) crypto.Share {
		share, err := suite.Sign(signer, digest)
		if err != nil {
			t.Fatal(err)
		}
		return share
	}
	forms := []struct {
		name  string
		share func(types.ReplicaID, types.Hash) crypto.Share
	}{
		{"batch", func(s types.ReplicaID, d types.Hash) crypto.Share { return batchForm(t, suite, s, d) }},
		{"plain", plain},
	}

	// Timeouts: f+1 votes against view 1 make replica 2 — the leader of
	// view 2 — join the view change and collect its own view-change message.
	collector := r.nodes[2]
	for _, form := range forms {
		for _, sender := range []types.ReplicaID{0, 3} {
			deliver(collector, r.now, sender, &leopard.TimeoutMsg{View: 1, Share: form.share(sender, leopard.TimeoutDigest(1))})
		}
		if joined := collector.InViewChange(); joined != (form.name == "plain") {
			t.Fatalf("after f+1 timeouts under %s shares: in view change = %v", form.name, joined)
		}
	}

	// View-change messages: two more complete the 2f+1 the new leader
	// announces view 2 on.
	var newView *leopard.NewViewMsg
	for _, form := range forms {
		for _, sender := range []types.ReplicaID{0, 3} {
			vc := &leopard.ViewChangeMsg{NewView: 2, Sender: sender}
			vc.Share = form.share(sender, leopard.ViewChangeDigest(vc))
			for _, env := range deliver(collector, r.now, sender, vc) {
				if nv, ok := env.Msg.(*leopard.NewViewMsg); ok {
					newView = nv
				}
			}
		}
		if announced := newView != nil; announced != (form.name == "plain") || (collector.View() == 2) != announced {
			t.Fatalf("after 2f view-change messages under %s shares: announced = %v, collector in view %d", form.name, announced, collector.View())
		}
	}

	// The new-view announcement itself.
	follower := r.nodes[0]
	for _, form := range forms {
		nv := *newView
		nv.Share = form.share(2, leopard.NewViewDigest(&nv))
		deliver(follower, r.now, 2, &nv)
		if entered := follower.View() == 2; entered != (form.name == "plain") {
			t.Fatalf("after a new-view under a %s share: follower in view %d", form.name, follower.View())
		}
	}
}

// TestWatermarkAdvancesPastAWrongStateSigner: a replica that signs a wrong
// state at every checkpoint, and is honest otherwise, must not stop stable
// checkpoints from forming: the other 2f+1 agree, and the watermark moves on
// past the window that would otherwise fill for good. (Replica 0: the
// ed25519 suite combines the 2f+1 lowest signers it is handed, so a poisoned
// share from the lowest id is the one it can never leave out.)
func TestWatermarkAdvancesPastAWrongStateSigner(t *testing.T) {
	const byzantine = types.ReplicaID(0)
	r := newRouter(t, 4, func(cfg *leopard.Config) {
		cfg.MaxParallel = 8
		cfg.CheckpointEvery = 4
	})
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool {
		if cp, ok := msg.(*leopard.CheckpointMsg); ok && from == byzantine {
			cp.StateHash[0] ^= 0xff
			share, err := suite.Sign(byzantine, leopard.CheckpointDigest(cp.Seq, cp.StateHash))
			if err != nil {
				t.Fatal(err)
			}
			cp.Share = share
			forged++
		}
		return false
	}
	r.submit(2, 200, 0)
	r.submit(3, 200, 1000)
	r.advance(400*time.Millisecond, 5*time.Millisecond)

	for id, node := range r.nodes {
		st := node.Stats()
		if st.LastCheckpointSeq < 2*8 {
			t.Errorf("replica %d: last stable checkpoint %d, want the watermark at least two windows (16) up", id, st.LastCheckpointSeq)
		}
		if node.ExecutedTo() < 2*8 {
			t.Errorf("replica %d: executed to %d, want past two windows", id, node.ExecutedTo())
		}
	}
	if forged < 4 {
		t.Errorf("%d checkpoint shares were forged, want one at each of at least four checkpoints", forged)
	}
}
