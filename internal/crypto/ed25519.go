package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"leopard/internal/crypto/edwards25519"
	"leopard/internal/types"
)

// Ed25519Suite implements Suite as a (2f+1, n) aggregate multisignature:
// each share is a real Ed25519 signature; the combined proof is a signer
// bitmap followed by the shares of the 2f+1 lowest-id signers. The proof is
// publicly verifiable against the per-replica public keys.
//
// This is the documented substitution for threshold BLS (see the package
// doc in hash.go):
// the interface contract — unforgeable shares, quorum-combined proofs,
// public verification — is preserved; only the proof wire size differs,
// which the simulations account for separately via SimSuite.
//
// A share is checked by edwards25519.Verify, crypto/ed25519.Verify's exact
// rule on the signer's comb. A proof is checked as one batch by the
// package's proof rule (hash.go), and so is the quorum Combine signs into
// one.
type Ed25519Suite struct {
	params types.QuorumParams
	keys   []*edwards25519.PublicKey // the public keys, for share and proof checks
	privs  []ed25519.PrivateKey
}

var _ Suite = (*Ed25519Suite)(nil)

// NewEd25519Suite runs a trusted-dealer setup for n replicas from a seed,
// returning a suite holding every key. Every process of a cluster calls it
// with the same seed (leopard-node and leopard-client read it from the
// cluster file), so each holds every private key: the stand-in for a key
// distribution, which this repository does not have.
func NewEd25519Suite(n int, seed []byte) (*Ed25519Suite, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	s := &Ed25519Suite{
		params: q,
		keys:   make([]*edwards25519.PublicKey, n),
		privs:  make([]ed25519.PrivateKey, n),
	}
	for i := 0; i < n; i++ {
		var keySeed [ed25519.SeedSize]byte
		h := sha256.New()
		h.Write(seed)
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		h.Write(idx[:])
		h.Sum(keySeed[:0])
		s.privs[i] = ed25519.NewKeyFromSeed(keySeed[:])
		if s.keys[i], err = edwards25519.NewPublicKey(s.privs[i].Public().(ed25519.PublicKey)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Params implements Suite.
func (s *Ed25519Suite) Params() types.QuorumParams { return s.params }

// ShareSize implements Suite: an Ed25519 signature is 64 bytes.
func (s *Ed25519Suite) ShareSize() int { return ed25519.SignatureSize }

// ProofSize implements Suite: bitmap + 2f+1 signatures.
func (s *Ed25519Suite) ProofSize() int {
	return (s.params.N+7)/8 + s.params.Quorum()*ed25519.SignatureSize
}

// Sign implements Suite.
func (s *Ed25519Suite) Sign(signer types.ReplicaID, digest types.Hash) (Share, error) {
	if int(signer) >= s.params.N || s.privs[signer] == nil {
		return Share{}, fmt.Errorf("%w: %d", ErrUnknownSigner, signer)
	}
	return Share{Signer: signer, Sig: ed25519.Sign(s.privs[signer], digest[:])}, nil
}

// VerifyShare implements Suite.
func (s *Ed25519Suite) VerifyShare(digest types.Hash, share Share) error {
	if int(share.Signer) >= s.params.N {
		return fmt.Errorf("%w: %d", ErrUnknownSigner, share.Signer)
	}
	signed, sig, ok := openShare(ed25519.SignatureSize, digest, share.Sig)
	if !ok || !edwards25519.Verify(s.keys[share.Signer], signed[:], sig) {
		return fmt.Errorf("%w: signer %d", ErrBadShare, share.Signer)
	}
	return nil
}

// Combine implements Suite. Shares must be valid; Combine checks the proof
// it builds as VerifyProof does, so a faulty vote cannot poison the
// aggregate and no proof leaves that VerifyProof refuses.
func (s *Ed25519Suite) Combine(digest types.Hash, shares []Share) (Proof, error) {
	if err := checkShareSet(s.params, ed25519.SignatureSize, shares); err != nil {
		return Proof{}, err
	}
	sorted := make([]Share, len(shares))
	copy(sorted, shares)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Signer < sorted[j].Signer })
	sorted = sorted[:s.params.Quorum()]

	bitmapLen := (s.params.N + 7) / 8
	out := make([]byte, bitmapLen, bitmapLen+len(sorted)*ed25519.SignatureSize)
	for _, sh := range sorted {
		out[int(sh.Signer)/8] |= 1 << (uint(sh.Signer) % 8)
		out = append(out, sh.Sig...)
	}
	if err := s.VerifyProof(digest, Proof{Sig: out}); err != nil {
		return Proof{}, fmt.Errorf("%w: the quorum does not combine: %v", ErrBadShare, err)
	}
	return Proof{Sig: out}, nil
}

// VerifyProof implements Suite. A proof names exactly Quorum() signers —
// what Combine emits and ProofSize declares, and a cap on what a hostile
// proof costs to check — and its signatures pass the proof rule (hash.go)
// as one batch.
func (s *Ed25519Suite) VerifyProof(digest types.Hash, proof Proof) error {
	bitmapLen := (s.params.N + 7) / 8
	if len(proof.Sig) < bitmapLen {
		return fmt.Errorf("%w: truncated bitmap", ErrBadProof)
	}
	bitmap, sigs := proof.Sig[:bitmapLen], proof.Sig[bitmapLen:]
	// Reject stray bits above N in the final bitmap byte: they name no
	// signer, so ignoring them would give one digest many distinct "valid"
	// proof encodings, breaking proof canonicity (anything keyed or
	// deduplicated by proof bytes could be split by an adversary re-serving
	// the same proof under fresh encodings).
	if rem := s.params.N % 8; rem != 0 {
		if bitmap[bitmapLen-1]&^byte(1<<rem-1) != 0 {
			return fmt.Errorf("%w: non-canonical bitmap bits above signer %d", ErrBadProof, s.params.N-1)
		}
	}
	keys := make([]*edwards25519.PublicKey, 0, s.params.Quorum())
	for i := 0; i < s.params.N; i++ {
		if bitmap[i/8]&(1<<(uint(i)%8)) != 0 {
			keys = append(keys, s.keys[i])
		}
	}
	if len(keys) != s.params.Quorum() {
		return fmt.Errorf("%w: %d signers, a proof has exactly %d", ErrBadProof, len(keys), s.params.Quorum())
	}
	if len(sigs) != len(keys)*ed25519.SignatureSize {
		return fmt.Errorf("%w: signature block length mismatch", ErrBadProof)
	}
	if !edwards25519.VerifyBatch(keys, digest[:], sigs, proof.Sig) {
		return fmt.Errorf("%w: signatures do not verify", ErrBadProof)
	}
	return nil
}
