package client

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"leopard/internal/types"
)

func testKeychain(t *testing.T, n int) *Keychain {
	t.Helper()
	kc, err := NewKeychain(n, []byte("test-seed"))
	if err != nil {
		t.Fatalf("NewKeychain: %v", err)
	}
	return kc
}

func TestKeychainDeterministic(t *testing.T) {
	a := testKeychain(t, 4)
	b := testKeychain(t, 4)
	for i := uint64(0); i < 4; i++ {
		if !bytes.Equal(a.Public(i), b.Public(i)) {
			t.Fatalf("client %d: keys differ across derivations", i)
		}
	}
	c, err := NewKeychain(4, []byte("other-seed"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Public(0), c.Public(0)) {
		t.Fatal("different seeds derived the same key")
	}
	if a.Public(4) != nil {
		t.Fatal("out-of-range Public should be nil")
	}
}

func TestSignVerify(t *testing.T) {
	kc := testKeychain(t, 3)
	v := kc.Verifier()
	req := types.Request{ClientID: 1, Seq: 7, Payload: []byte("hello")}
	sig, err := kc.Sign(req)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !v.VerifyRequest(req, sig) {
		t.Fatal("valid signature rejected")
	}

	// Every signed field must be load-bearing.
	mutations := []types.Request{
		{ClientID: 2, Seq: 7, Payload: []byte("hello")},
		{ClientID: 1, Seq: 8, Payload: []byte("hello")},
		{ClientID: 1, Seq: 7, Payload: []byte("hellO")},
	}
	for i, m := range mutations {
		if v.VerifyRequest(m, sig) {
			t.Fatalf("mutation %d verified under the original signature", i)
		}
	}
	if v.VerifyRequest(req, sig[:16]) {
		t.Fatal("truncated signature verified")
	}
	if v.VerifyRequest(types.Request{ClientID: 99, Seq: 0}, sig) {
		t.Fatal("unknown client verified")
	}
	if _, err := kc.Sign(types.Request{ClientID: 99}); err == nil {
		t.Fatal("Sign for unknown client should fail")
	}
}

func TestRequestDigestDomainSeparation(t *testing.T) {
	// Requests whose concatenated fields would collide under naive
	// encoding must produce distinct digests.
	a := RequestDigest(types.Request{ClientID: 1, Seq: 2, Payload: []byte("x")})
	b := RequestDigest(types.Request{ClientID: 2, Seq: 1, Payload: []byte("x")})
	if a == b {
		t.Fatal("digest ignores field positions")
	}
	r := ReplyDigest(1, 2, 3, types.Hash{4})
	if r == a {
		t.Fatal("request and reply digest domains overlap")
	}
}

// TestRequestDigestPinned: the digest clients sign is the same bytes as
// always; a change here invalidates every deployed client.
func TestRequestDigestPinned(t *testing.T) {
	d := RequestDigest(types.Request{ClientID: 0x0102030405060708, Seq: 42, Payload: []byte("pinned")})
	if got := hex.EncodeToString(d[:]); got != "9a7e1add4bd2c509c8d7290ec05f3386461734397f0737c8efa0b4b6ec36dbed" {
		t.Fatalf("RequestDigest = %s", got)
	}
}

// TestRequestDigestPayloadDigest: a request carrying its payload's digest
// signs the same bytes as one carrying zero, which hashes the payload.
func TestRequestDigestPayloadDigest(t *testing.T) {
	req := types.Request{ClientID: 7, Seq: 9, Payload: []byte("payload")}
	set := req
	set.PayloadDigest = sha256.Sum256(req.Payload)
	if RequestDigest(set) != RequestDigest(req) {
		t.Fatal("RequestDigest differs between a set and a zero PayloadDigest")
	}
}

func TestVerifyBatchMatchesSequential(t *testing.T) {
	kc := testKeychain(t, 8)
	v := kc.Verifier()
	const batch = 96
	reqs := make([]types.Request, batch)
	sigs := make([][]byte, batch)
	for i := range reqs {
		reqs[i] = types.Request{ClientID: uint64(i % 8), Seq: uint64(i), Payload: []byte{byte(i)}}
		sig, err := kc.Sign(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	// Corrupt a deterministic subset.
	bad := map[int]bool{0: true, 17: true, batch - 1: true}
	for i := range bad {
		sigs[i] = append([]byte(nil), sigs[i]...)
		sigs[i][5] ^= 0xff
	}
	got := v.VerifyRequestBatch(reqs, sigs)
	if len(got) != batch {
		t.Fatalf("batch returned %d verdicts, want %d", len(got), batch)
	}
	for i := range reqs {
		want := v.VerifyRequest(reqs[i], sigs[i])
		if got[i] != want {
			t.Fatalf("verdict %d: batch=%v sequential=%v", i, got[i], want)
		}
		if got[i] == bad[i] {
			t.Fatalf("verdict %d: corrupted=%v but verified=%v", i, bad[i], got[i])
		}
	}
	// Mismatched lengths fail closed.
	for _, verdict := range v.VerifyRequestBatch(reqs, sigs[:1]) {
		if verdict {
			t.Fatal("length-mismatched batch verified a signature")
		}
	}
}

// TestVerifierSharedColdKey: goroutines checking one client whose tables
// are not built yet, through one keychain's shared verifier, all get the
// same verdict (run it with -race).
func TestVerifierSharedColdKey(t *testing.T) {
	kc := testKeychain(t, 2)
	req := types.Request{ClientID: 1, Seq: 3, Payload: []byte("cold")}
	sig, err := kc.Sign(req)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sig...)
	bad[0] ^= 1
	var wg sync.WaitGroup
	verdicts := make([]bool, 16)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts[2*g] = kc.Verifier().VerifyRequest(req, sig)
			verdicts[2*g+1] = kc.Verifier().VerifyRequest(req, bad)
		}()
	}
	wg.Wait()
	for g := range 8 {
		if !verdicts[2*g] || verdicts[2*g+1] {
			t.Fatalf("goroutine %d: valid=%v corrupted=%v", g, verdicts[2*g], verdicts[2*g+1])
		}
	}
	if kc.Verifier() != kc.Verifier() {
		t.Fatal("Verifier builds a new verifier per call")
	}
}
