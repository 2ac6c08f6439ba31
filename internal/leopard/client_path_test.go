package leopard_test

import (
	"testing"
	"time"

	"leopard/internal/client"
	"leopard/internal/crypto"
	"leopard/internal/leopard"
	"leopard/internal/mempool"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// authedNode builds a single replica with an authenticated front door: a
// real client keychain wired in as the admission verifier.
func authedNode(t *testing.T, mutate func(*leopard.Config)) (*leopard.Node, *client.Keychain) {
	t.Helper()
	q, err := types.NewQuorumParams(4)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := crypto.NewEd25519Suite(4, []byte("client-path"))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := client.NewKeychain(8, []byte("client-path"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := leopard.Config{
		ID: 2, Quorum: q, Suite: suite,
		Verifier: keys.Verifier(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	node, err := leopard.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node.Start(0, transport.Discard)
	return node, keys
}

// TestUnsignedRejectedWhenVerifierSet: once a verifier is configured, a
// request without a signature is rejected — otherwise signatures would be
// decorative.
func TestUnsignedRejectedWhenVerifierSet(t *testing.T) {
	node, _ := authedNode(t, nil)
	req := types.Request{ClientID: 1, Seq: 0, Payload: []byte("unsigned")}
	if v := node.SubmitSigned(0, req, nil); v != mempool.BadSignature {
		t.Fatalf("unsigned request on a verifier-configured node: verdict %v, want %v", v, mempool.BadSignature)
	}
	st := node.Stats()
	if st.BadSignatures != 1 || st.RejectedRequests != 1 {
		t.Fatalf("bad-signature rejection not counted: %+v", st)
	}
	if node.PendingRequests() != 0 {
		t.Fatal("rejected request reached the pool")
	}
}

// TestCallerPayloadDigestIgnored: the PayloadDigest a caller passes never
// decides admission. SubmitSigned hashes the payload itself, so a signature
// over a wrong digest is refused, and a signature over the true payload is
// admitted whatever digest came with it.
func TestCallerPayloadDigestIgnored(t *testing.T) {
	node, keys := authedNode(t, nil)
	req := types.Request{ClientID: 4, Seq: 0, Payload: []byte("payload")}
	req.PayloadDigest = crypto.HashBytes([]byte("another payload"))
	sig, err := keys.Sign(req) // signs the wrong digest
	if err != nil {
		t.Fatal(err)
	}
	if v := node.SubmitSigned(0, req, sig); v != mempool.BadSignature {
		t.Fatalf("signature over a wrong payload digest: verdict %v, want BadSignature", v)
	}
	req.PayloadDigest = types.Hash{}
	if sig, err = keys.Sign(req); err != nil {
		t.Fatal(err)
	}
	req.PayloadDigest = types.Hash{1}
	if v := node.SubmitSigned(0, req, sig); v != mempool.Admitted {
		t.Fatalf("valid signature carried with a wrong payload digest: verdict %v, want Admitted", v)
	}
}

// TestSignedAdmissionAndBadSignature: a correctly signed request is
// admitted; flipping one signature byte, signing with the wrong client's
// key, or mutating any signed field must all reject.
func TestSignedAdmissionAndBadSignature(t *testing.T) {
	node, keys := authedNode(t, nil)
	req := types.Request{ClientID: 3, Seq: 0, Payload: []byte("hello")}
	sig, err := keys.Sign(req)
	if err != nil {
		t.Fatal(err)
	}
	if v := node.SubmitSigned(0, req, sig); v != mempool.Admitted {
		t.Fatalf("valid signed request: verdict %v, want Admitted", v)
	}
	if node.PendingRequests() != 1 {
		t.Fatalf("pool depth %d after admission, want 1", node.PendingRequests())
	}

	bad := append([]byte(nil), sig...)
	bad[0] ^= 0x01
	if v := node.SubmitSigned(0, types.Request{ClientID: 3, Seq: 1, Payload: []byte("hello")}, bad); v != mempool.BadSignature {
		t.Fatalf("corrupt signature: verdict %v, want BadSignature", v)
	}
	// Signature over different field values must not transfer.
	forged := types.Request{ClientID: 3, Seq: 2, Payload: []byte("hello")}
	if v := node.SubmitSigned(0, forged, sig); v != mempool.BadSignature {
		t.Fatalf("replayed signature on new seq: verdict %v, want BadSignature", v)
	}
	wrongClient := types.Request{ClientID: 4, Seq: 0, Payload: []byte("hello")}
	if v := node.SubmitSigned(0, wrongClient, sig); v != mempool.BadSignature {
		t.Fatalf("other client's signature: verdict %v, want BadSignature", v)
	}
	st := node.Stats()
	if st.BadSignatures != 3 {
		t.Fatalf("BadSignatures = %d, want 3", st.BadSignatures)
	}
	if st.AdmittedRequests != 1 || st.RejectedRequests != 3 {
		t.Fatalf("admission counters wrong: %+v", st)
	}
}

// TestBadNonceRejectedAtAdmission: a seq below the client's watermark is
// refused with StaleSeq and never reaches the pool.
func TestBadNonceRejectedAtAdmission(t *testing.T) {
	node, keys := authedNode(t, nil)
	sign := func(seq uint64) (types.Request, []byte) {
		req := types.Request{ClientID: 5, Seq: seq, Payload: []byte("p")}
		sig, err := keys.Sign(req)
		if err != nil {
			t.Fatal(err)
		}
		return req, sig
	}
	req, sig := sign(10)
	if v := node.SubmitSigned(0, req, sig); v != mempool.Admitted {
		t.Fatalf("anchor request: verdict %v", v)
	}
	// Below the anchor: stale, even though correctly signed.
	req, sig = sign(7)
	if v := node.SubmitSigned(0, req, sig); v != mempool.StaleSeq {
		t.Fatalf("stale seq: verdict %v, want StaleSeq", v)
	}
	// Duplicate of a live seq.
	req, sig = sign(10)
	if v := node.SubmitSigned(0, req, sig); v != mempool.DupLive {
		t.Fatalf("duplicate live seq: verdict %v, want DupLive", v)
	}
	if node.PendingRequests() != 1 {
		t.Fatalf("pool depth %d, want 1", node.PendingRequests())
	}
}

// TestSeqAboveNextPackedAtNextTick: the pool has one admission class, so a
// seq above the client's next one is packed like any other. A replica that
// has admitted seq 3 of a client admits seq 5 and sends both in the
// datablock it packs at its next tick.
func TestSeqAboveNextPackedAtNextTick(t *testing.T) {
	r := newRouter(t, 4, nil)
	gen := (r.nodes[0].Leader() + 1) % 4
	node := r.nodes[gen]
	for _, seq := range []uint64{3, 5} {
		req := types.Request{ClientID: 7, Seq: seq, Payload: []byte("p")}
		if v := node.SubmitSigned(r.now, req, nil); v != mempool.Admitted {
			t.Fatalf("seq %d: verdict %v, want admitted", seq, v)
		}
	}
	var packed []uint64
	for _, env := range tick(node, r.now+time.Millisecond) {
		if m, ok := env.Msg.(*leopard.DatablockMsg); ok {
			for _, req := range m.Block.Requests {
				packed = append(packed, req.Seq)
			}
		}
	}
	if len(packed) != 2 || packed[0] != 3 || packed[1] != 5 {
		t.Fatalf("datablock packed seqs %v, want [3 5]", packed)
	}
	if node.PendingRequests() != 0 {
		t.Fatalf("%d requests left in the pool after the tick", node.PendingRequests())
	}
}

// TestOverRateRejectedAtAdmission: per-client token buckets refuse a burst
// beyond the configured budget, without touching other clients.
func TestOverRateRejectedAtAdmission(t *testing.T) {
	node, keys := authedNode(t, func(cfg *leopard.Config) {
		cfg.Mempool = mempool.Limits{RatePerSec: 10, RateBurst: 2}
	})
	sign := func(cl, seq uint64) (types.Request, []byte) {
		req := types.Request{ClientID: cl, Seq: seq, Payload: []byte("p")}
		sig, err := keys.Sign(req)
		if err != nil {
			t.Fatal(err)
		}
		return req, sig
	}
	for seq := uint64(0); seq < 2; seq++ {
		req, sig := sign(1, seq)
		if v := node.SubmitSigned(0, req, sig); !v.OK() {
			t.Fatalf("burst request %d: verdict %v", seq, v)
		}
	}
	req, sig := sign(1, 2)
	if v := node.SubmitSigned(0, req, sig); v != mempool.RateLimited {
		t.Fatalf("over-budget request: verdict %v, want RateLimited", v)
	}
	// Another client still has a full bucket.
	req, sig = sign(2, 0)
	if v := node.SubmitSigned(0, req, sig); !v.OK() {
		t.Fatalf("other client's request: verdict %v", v)
	}
	st := node.Stats()
	if st.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", st.RateLimited)
	}
	// The bucket refills: 100ms at 10/s buys one more token.
	req, sig = sign(1, 2)
	if v := node.SubmitSigned(100*time.Millisecond, req, sig); !v.OK() {
		t.Fatalf("post-refill request: verdict %v", v)
	}
}

// TestRequestMsgGoesThroughAuthentication: authentication happens only
// behind the client port. A RequestMsg from a peer is ignored before any
// signature check: a validly signed one is not admitted, and a forged one
// costs no verification and counts no bad signature, so a Byzantine
// replica cannot make an honest one burn ed25519 checks on a flood.
func TestRequestMsgGoesThroughAuthentication(t *testing.T) {
	node, keys := authedNode(t, nil)
	good := types.Request{ClientID: 2, Seq: 0, Payload: []byte("wire")}
	sig, err := keys.Sign(good)
	if err != nil {
		t.Fatal(err)
	}
	deliver(node, 0, 0, &leopard.RequestMsg{Req: good, Sig: sig})
	if node.PendingRequests() != 0 {
		t.Fatalf("peer-forwarded RequestMsg admitted: depth %d", node.PendingRequests())
	}
	forged := types.Request{ClientID: 2, Seq: 1, Payload: []byte("wire")}
	deliver(node, 0, 0, &leopard.RequestMsg{Req: forged, Sig: []byte("garbage")})
	if st := node.Stats(); st.BadSignatures != 0 {
		t.Fatalf("peer-forwarded RequestMsg was verified: %d bad signatures", st.BadSignatures)
	}
	// The client port still admits the same signed request.
	if v := node.SubmitSigned(0, good, sig); !v.OK() {
		t.Fatalf("signed request through SubmitSigned: verdict %v", v)
	}
}

// TestRepliesEmittedOnExecution: every executed request produces a signed
// ReplyMsg whose share verifies against the reply digest — the unit a
// client aggregates into an f+1 reply certificate.
func TestRepliesEmittedOnExecution(t *testing.T) {
	var replies []leopard.ReplyMsg
	r := newRouter(t, 4, nil)
	for _, node := range r.nodes {
		if node.ID() == 0 {
			node.SetReplySink(func(m leopard.ReplyMsg) { replies = append(replies, m) })
		}
	}
	// Node 1 leads view 1 and never packs its own requests; submit to
	// non-leaders so datablocks actually form.
	r.submit(0, 30, 0)
	r.submit(2, 30, 1000)
	r.advance(200*time.Millisecond, 5*time.Millisecond)

	if len(replies) == 0 {
		t.Fatal("no replies emitted despite execution")
	}
	if got := r.nodes[0].Stats().RepliesSent; got != int64(len(replies)) {
		t.Fatalf("RepliesSent = %d, sink saw %d", got, len(replies))
	}
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]uint64]bool)
	for _, m := range replies {
		if m.Share.Signer != 0 {
			t.Fatalf("reply signed by %d, want replica 0", m.Share.Signer)
		}
		digest := client.ReplyDigest(m.Client, m.Seq, m.SN, m.Result)
		if err := suite.VerifyShare(digest, m.Share); err != nil {
			t.Fatalf("reply share does not verify: %v", err)
		}
		key := [2]uint64{m.Client, m.Seq}
		if seen[key] {
			t.Fatalf("duplicate reply for client %d seq %d", m.Client, m.Seq)
		}
		seen[key] = true
	}
}

// TestNoRepliesDuringReplay: WAL replay re-runs execution bookkeeping but
// must not re-send replies — the requests were answered in a previous life,
// and clients that missed the answer retransmit — nor sign any.
func TestNoRepliesDuringReplay(t *testing.T) {
	r, stores := storedRouter(t, 4, nil)
	r.submit(0, 60, 0)
	r.submit(2, 60, 1000)
	r.advance(100*time.Millisecond, 5*time.Millisecond)
	if r.nodes[3].ExecutedTo() == 0 {
		t.Fatal("no execution happened; test cannot exercise replay")
	}

	q, _ := types.NewQuorumParams(4)
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	counted := &leopard.SignCounter{Suite: suite}
	node, err := leopard.NewNode(leopard.Config{
		ID: 3, Quorum: q, Suite: counted,
		DatablockSize: 10, BFTBlockSize: 2,
		ViewChangeTimeout: time.Hour,
		RetrievalTimeout:  10 * time.Millisecond,
		MaxParallel:       8, CheckpointEvery: 4,
		Store: stores.open(t, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	var replayReplies int
	node.SetReplySink(func(leopard.ReplyMsg) { replayReplies++ })
	node.Start(r.now, transport.Discard)
	if node.Stats().BlocksReplayed == 0 {
		t.Skip("nothing replayed (anchor at frontier); replay suppression not exercised")
	}
	if replayReplies != 0 {
		t.Fatalf("replay emitted %d replies, want 0", replayReplies)
	}
	if node.Stats().RepliesSent != 0 {
		t.Fatalf("RepliesSent = %d after pure replay", node.Stats().RepliesSent)
	}
	if counted.Signs != 0 {
		t.Fatalf("replay made %d Sign calls, want 0", counted.Signs)
	}
}

// TestConfirmedResubmissionGetsFreshReply: a client that missed the original
// reply certificate retransmits its confirmed request; instead of a bare
// dup-confirmed rejection, the replica re-emits a fresh signed ReplyMsg from
// its last-reply cache, so the client still completes.
func TestConfirmedResubmissionGetsFreshReply(t *testing.T) {
	var replies []leopard.ReplyMsg
	r := newRouter(t, 4, nil)
	r.nodes[0].SetReplySink(func(m leopard.ReplyMsg) { replies = append(replies, m) })

	const clientID, seq = 77, 5
	req := types.Request{ClientID: clientID, Seq: seq, Payload: []byte("retry-me")}
	if v := r.nodes[0].SubmitSigned(r.now, req, nil); v != mempool.Admitted {
		t.Fatalf("initial submission: verdict %v", v)
	}
	r.advance(200*time.Millisecond, 5*time.Millisecond)

	var original *leopard.ReplyMsg
	for i := range replies {
		if replies[i].Client == clientID && replies[i].Seq == seq {
			original = &replies[i]
		}
	}
	if original == nil {
		t.Fatal("request never executed; no original reply emitted")
	}
	first := *original

	// The client missed the certificate and retransmits. The pool rejects
	// the duplicate (as StaleSeq here: the contiguous confirmation folded
	// into the consumed watermark), but the cached reply must be re-sent —
	// identical result and a share that verifies, so f+1 such replies still
	// certify.
	replies = replies[:0]
	sentBefore := r.nodes[0].Stats().RepliesSent
	if v := r.nodes[0].SubmitSigned(r.now, req, nil); v.OK() {
		t.Fatalf("retransmission admitted: %v", v)
	}
	if len(replies) != 1 {
		t.Fatalf("retransmission produced %d replies, want 1", len(replies))
	}
	got := replies[0]
	if got.Client != clientID || got.Seq != seq || got.SN != first.SN || got.Result != first.Result {
		t.Fatalf("re-emitted reply %+v does not match original %+v", got, first)
	}
	suite, err := crypto.NewEd25519Suite(4, []byte("router-seed"))
	if err != nil {
		t.Fatal(err)
	}
	digest := client.ReplyDigest(got.Client, got.Seq, got.SN, got.Result)
	if err := suite.VerifyShare(digest, got.Share); err != nil {
		t.Fatalf("re-emitted reply share does not verify: %v", err)
	}
	if sent := r.nodes[0].Stats().RepliesSent; sent != sentBefore+1 {
		t.Fatalf("RepliesSent %d → %d, want +1", sentBefore, sent)
	}

	// Only the exact confirmed (client, seq) is served from the cache: a
	// different stale seq stays a bare rejection.
	replies = replies[:0]
	stale := types.Request{ClientID: clientID, Seq: seq - 1, Payload: []byte("older")}
	if v := r.nodes[0].SubmitSigned(r.now, stale, nil); v.OK() {
		t.Fatalf("stale retransmission admitted: %v", v)
	}
	if len(replies) != 0 {
		t.Fatalf("stale retransmission re-emitted %d replies", len(replies))
	}
}
