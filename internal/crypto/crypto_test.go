package crypto

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"leopard/internal/types"
)

// suites returns both Suite implementations for shared conformance tests.
func suites(t *testing.T, n int) map[string]Suite {
	t.Helper()
	ed, err := NewEd25519Suite(n, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimSuite(n, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Suite{"ed25519": ed, "sim": sim}
}

func TestSuiteSignVerifyCombine(t *testing.T) {
	const n = 7
	digest := HashBytes([]byte("hello"))
	for name, s := range suites(t, n) {
		t.Run(name, func(t *testing.T) {
			q := s.Params()
			var shares []Share
			for i := 0; i < q.Quorum(); i++ {
				sh, err := s.Sign(types.ReplicaID(i), digest)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.VerifyShare(digest, sh); err != nil {
					t.Fatalf("share %d: %v", i, err)
				}
				shares = append(shares, sh)
			}
			proof, err := s.Combine(digest, shares)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.VerifyProof(digest, proof); err != nil {
				t.Fatal(err)
			}
			// A proof for one digest must not verify for another.
			other := HashBytes([]byte("other"))
			if err := s.VerifyProof(other, proof); err == nil {
				t.Fatal("proof verified for the wrong digest")
			}
		})
	}
}

func TestSuiteRejectsBadShares(t *testing.T) {
	const n = 4
	digest := HashBytes([]byte("msg"))
	for name, s := range suites(t, n) {
		t.Run(name, func(t *testing.T) {
			sh, err := s.Sign(0, digest)
			if err != nil {
				t.Fatal(err)
			}
			// Tampered signature bytes.
			bad := Share{Signer: sh.Signer, Sig: append([]byte(nil), sh.Sig...)}
			bad.Sig[0] ^= 0xff
			if err := s.VerifyShare(digest, bad); err == nil {
				t.Error("tampered share verified")
			}
			// Claimed wrong signer.
			imposter := Share{Signer: 1, Sig: sh.Sig}
			if err := s.VerifyShare(digest, imposter); err == nil {
				t.Error("share verified under the wrong signer")
			}
			// Unknown signer id.
			if _, err := s.Sign(types.ReplicaID(n), digest); err == nil {
				t.Error("signing with out-of-range id succeeded")
			}
			if err := s.VerifyShare(digest, Share{Signer: types.ReplicaID(n), Sig: sh.Sig}); err == nil {
				t.Error("verifying out-of-range signer succeeded")
			}
		})
	}
}

func TestCombineRequiresQuorum(t *testing.T) {
	const n = 7 // f=2, quorum=5
	digest := HashBytes([]byte("quorum"))
	for name, s := range suites(t, n) {
		t.Run(name, func(t *testing.T) {
			var shares []Share
			for i := 0; i < 4; i++ { // one short of quorum
				sh, _ := s.Sign(types.ReplicaID(i), digest)
				shares = append(shares, sh)
			}
			if _, err := s.Combine(digest, shares); !errors.Is(err, ErrNotEnoughShares) {
				t.Errorf("want ErrNotEnoughShares, got %v", err)
			}
			// Duplicates must not count toward the quorum.
			sh, _ := s.Sign(0, digest)
			dups := append(append([]Share(nil), shares...), sh)
			if _, err := s.Combine(digest, dups); err == nil {
				t.Error("combine with duplicate signer succeeded")
			}
		})
	}
}

func TestCombineRejectsInvalidShareInQuorum(t *testing.T) {
	const n = 4
	digest := HashBytes([]byte("poison"))
	for name, s := range suites(t, n) {
		t.Run(name, func(t *testing.T) {
			var shares []Share
			for i := 0; i < s.Params().Quorum(); i++ {
				sh, _ := s.Sign(types.ReplicaID(i), digest)
				shares = append(shares, sh)
			}
			shares[1].Sig[0] ^= 0x01 // poison one share
			if _, err := s.Combine(digest, shares); err == nil {
				t.Error("combine accepted a poisoned share")
			}
		})
	}
}

func TestEd25519ProofRejectsSubQuorumBitmap(t *testing.T) {
	s, err := NewEd25519Suite(4, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	digest := HashBytes([]byte("m"))
	var shares []Share
	for i := 0; i < 3; i++ {
		sh, _ := s.Sign(types.ReplicaID(i), digest)
		shares = append(shares, sh)
	}
	proof, err := s.Combine(digest, shares)
	if err != nil {
		t.Fatal(err)
	}
	// Clear one bitmap bit: now only 2 signers claimed.
	proof.Sig[0] &^= 1
	if err := s.VerifyProof(digest, proof); err == nil {
		t.Fatal("proof with sub-quorum bitmap verified")
	}
}

// TestEd25519ProofRejectsNonCanonicalBitmap is the regression test for
// stray bits above N in the final bitmap byte being silently ignored, which
// gave one digest many distinct "valid" proof encodings.
func TestEd25519ProofRejectsNonCanonicalBitmap(t *testing.T) {
	const n = 6 // bitmap is one byte, bits 6 and 7 name no signer
	s, err := NewEd25519Suite(n, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	digest := HashBytes([]byte("canonical"))
	var shares []Share
	for i := 0; i < s.Params().Quorum(); i++ {
		sh, err := s.Sign(types.ReplicaID(i), digest)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	proof, err := s.Combine(digest, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyProof(digest, proof); err != nil {
		t.Fatalf("canonical proof must verify: %v", err)
	}
	for _, stray := range []byte{1 << 6, 1 << 7, 1<<6 | 1<<7} {
		mutated := append([]byte(nil), proof.Sig...)
		mutated[0] |= stray
		err := s.VerifyProof(digest, Proof{Sig: mutated})
		if !errors.Is(err, ErrBadProof) {
			t.Errorf("bitmap with stray bits %08b accepted: %v", stray, err)
		}
	}
}

func TestSuiteSizes(t *testing.T) {
	ed, _ := NewEd25519Suite(4, []byte("s"))
	if ed.ShareSize() != 64 {
		t.Errorf("ed25519 share size = %d, want 64", ed.ShareSize())
	}
	sim, _ := NewSimSuite(4, []byte("s"))
	if sim.ShareSize() != SimShareSize || sim.ProofSize() != SimProofSize {
		t.Errorf("sim sizes = %d/%d, want %d/%d", sim.ShareSize(), sim.ProofSize(), SimShareSize, SimProofSize)
	}
	sh, _ := sim.Sign(0, HashBytes([]byte("z")))
	if len(sh.Sig) != SimShareSize {
		t.Errorf("share wire length = %d, want %d", len(sh.Sig), SimShareSize)
	}
}

func TestSimSuiteDeterministicAcrossInstances(t *testing.T) {
	a, _ := NewSimSuite(4, []byte("shared-seed"))
	b, _ := NewSimSuite(4, []byte("shared-seed"))
	digest := HashBytes([]byte("d"))
	sh, err := a.Sign(2, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.VerifyShare(digest, sh); err != nil {
		t.Fatal("share from one instance must verify at another with the same seed")
	}
	var shares []Share
	for i := 0; i < 3; i++ {
		s, _ := a.Sign(types.ReplicaID(i), digest)
		shares = append(shares, s)
	}
	proof, err := a.Combine(digest, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.VerifyProof(digest, proof); err != nil {
		t.Fatal("proof from one instance must verify at another with the same seed")
	}
}

// TestHashDatablockPayloadDigest: a datablock whose requests carry their
// payload digests (as at their generator) has the digest of the same
// datablock decoded off the wire, whose requests carry zero.
func TestHashDatablockPayloadDigest(t *testing.T) {
	zero := &types.Datablock{Ref: types.DatablockRef{Generator: 2, Counter: 5}}
	set := &types.Datablock{Ref: zero.Ref}
	for i := range 3 {
		r := types.Request{ClientID: uint64(i), Seq: uint64(10 + i), Payload: bytes.Repeat([]byte{byte(i)}, 64*i)}
		zero.Requests = append(zero.Requests, r)
		r.PayloadDigest = HashBytes(r.Payload)
		set.Requests = append(set.Requests, r)
	}
	if HashDatablock(set) != HashDatablock(zero) {
		t.Fatal("HashDatablock differs between set and zero payload digests")
	}
}

func TestHashHelpersDistinguishInputs(t *testing.T) {
	r1 := types.Request{ClientID: 1, Seq: 2, Payload: []byte("a")}
	r2 := types.Request{ClientID: 1, Seq: 3, Payload: []byte("a")}
	r3 := types.Request{ClientID: 1, Seq: 2, Payload: []byte("b")}
	if r1.PayloadHash() == r3.PayloadHash() {
		t.Error("requests with different payloads must hash differently")
	}
	db1 := &types.Datablock{Ref: types.DatablockRef{Generator: 1, Counter: 1}, Requests: []types.Request{r1}}
	db2 := &types.Datablock{Ref: types.DatablockRef{Generator: 1, Counter: 2}, Requests: []types.Request{r1}}
	if HashDatablock(db1) == HashDatablock(db2) {
		t.Error("datablocks with different counters must hash differently")
	}
	for _, r := range []types.Request{r2, r3} {
		db := &types.Datablock{Ref: db1.Ref, Requests: []types.Request{r}}
		if HashDatablock(db) == HashDatablock(db1) {
			t.Errorf("datablocks whose request differs in seq or payload must hash differently (%+v)", r)
		}
	}
	b1 := &types.BFTblock{View: 1, Seq: 1, Content: []types.Hash{{1}}}
	b2 := &types.BFTblock{View: 1, Seq: 1, Content: []types.Hash{{2}}}
	if HashBFTblock(b1) == HashBFTblock(b2) {
		t.Error("BFTblocks with different content must hash differently")
	}
	if HashOfHash(types.Hash{1}) == HashOfHash(types.Hash{2}) {
		t.Error("hash chaining collision")
	}
}

// TestPropertyShareRoundTrip fuzzes digests through both suites.
func TestPropertyShareRoundTrip(t *testing.T) {
	ed, _ := NewEd25519Suite(4, []byte("fuzz"))
	sim, _ := NewSimSuite(4, []byte("fuzz"))
	check := func(data []byte, signerRaw uint8) bool {
		signer := types.ReplicaID(signerRaw % 4)
		digest := HashBytes(data)
		for _, s := range []Suite{ed, sim} {
			sh, err := s.Sign(signer, digest)
			if err != nil {
				return false
			}
			if err := s.VerifyShare(digest, sh); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkHashDatablock times the datablock digest at the benchmark's
// small and large request shapes, at a generator (each request carries
// the payload digest its admission computed) and at a receiver (each
// request was decoded, so its payload is hashed here).
func BenchmarkHashDatablock(b *testing.B) {
	for _, shape := range []struct{ reqs, size int }{{100, 128}, {16, 32 << 10}} {
		for _, at := range []string{"generator", "receiver"} {
			db := &types.Datablock{Ref: types.DatablockRef{Generator: 1, Counter: 1}}
			for i := range shape.reqs {
				r := types.Request{ClientID: uint64(i), Seq: 1, Payload: bytes.Repeat([]byte{byte(i)}, shape.size)}
				if at == "generator" {
					r.PayloadDigest = HashBytes(r.Payload)
				}
				db.Requests = append(db.Requests, r)
			}
			b.Run(fmt.Sprintf("%dx%dB/%s", shape.reqs, shape.size, at), func(b *testing.B) {
				b.SetBytes(int64(shape.reqs * shape.size))
				b.ReportAllocs()
				for b.Loop() {
					HashDatablock(db)
				}
			})
		}
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	s, _ := NewEd25519Suite(4, []byte("bench"))
	digest := HashBytes([]byte("benchmark"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(0, digest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSign(b *testing.B) {
	s, _ := NewSimSuite(4, []byte("bench"))
	digest := HashBytes([]byte("benchmark"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(0, digest); err != nil {
			b.Fatal(err)
		}
	}
}
