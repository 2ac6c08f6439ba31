package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"leopard/internal/types"
)

// Paper parameters (§VI footnote 7): β = 32 B hashes, κ = 48 B threshold-BLS
// votes. SimSuite uses these wire sizes.
const (
	// SimShareSize is κ, the wire size of one vote share (threshold BLS).
	SimShareSize = 48
	// SimProofSize is the wire size of one combined proof (one BLS signature).
	SimProofSize = 48
)

// SimSuite is a fast deterministic Suite for large-scale simulations. Shares
// are truncated HMAC-SHA256 tags under per-replica keys derived from a
// common seed; the combined proof is a hash over the quorum's sorted shares.
// Verification recomputes tags, so the suite is *not* secure against a real
// adversary holding only public material — it exists so 600-replica sweeps
// spend their CPU on the network model, not on signatures, while keeping the
// paper's wire sizes (κ = 48 B) exact. Protocol-logic tests use Ed25519Suite.
type SimSuite struct {
	params types.QuorumParams
	keys   [][]byte
	master []byte
}

var _ Suite = (*SimSuite)(nil)

// NewSimSuite creates a simulation suite for n replicas from a seed.
func NewSimSuite(n int, seed []byte) (*SimSuite, error) {
	q, err := types.NewQuorumParams(n)
	if err != nil {
		return nil, err
	}
	s := &SimSuite{params: q, keys: make([][]byte, n)}
	for i := 0; i < n; i++ {
		h := sha256.New()
		h.Write(seed)
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		h.Write(idx[:])
		s.keys[i] = h.Sum(nil)
	}
	master := sha256.New()
	for _, k := range s.keys {
		master.Write(k)
	}
	s.master = master.Sum(nil)
	return s, nil
}

// Params implements Suite.
func (s *SimSuite) Params() types.QuorumParams { return s.params }

// ShareSize implements Suite.
func (s *SimSuite) ShareSize() int { return SimShareSize }

// ProofSize implements Suite.
func (s *SimSuite) ProofSize() int { return SimProofSize }

func (s *SimSuite) tag(signer types.ReplicaID, digest types.Hash) []byte {
	mac := hmac.New(sha256.New, s.keys[signer])
	mac.Write(digest[:])
	full := mac.Sum(nil)
	out := make([]byte, SimShareSize)
	// Pad the 32-byte MAC to κ by repeating it.
	for i := range out {
		out[i] = full[i%len(full)]
	}
	return out
}

// Sign implements Suite.
func (s *SimSuite) Sign(signer types.ReplicaID, digest types.Hash) (Share, error) {
	if int(signer) >= s.params.N {
		return Share{}, fmt.Errorf("%w: %d", ErrUnknownSigner, signer)
	}
	return Share{Signer: signer, Sig: s.tag(signer, digest)}, nil
}

// VerifyShare implements Suite.
func (s *SimSuite) VerifyShare(digest types.Hash, share Share) error {
	if int(share.Signer) >= s.params.N {
		return fmt.Errorf("%w: %d", ErrUnknownSigner, share.Signer)
	}
	signed, sig, ok := openShare(SimShareSize, digest, share.Sig)
	if !ok || !hmac.Equal(sig, s.tag(share.Signer, signed)) {
		return fmt.Errorf("%w: signer %d", ErrBadShare, share.Signer)
	}
	return nil
}

// Combine implements Suite. The proof binds the digest and the sorted quorum
// of signer ids so that VerifyProof can recompute it deterministically.
func (s *SimSuite) Combine(digest types.Hash, shares []Share) (Proof, error) {
	if err := checkShareSet(s.params, SimShareSize, shares); err != nil {
		return Proof{}, err
	}
	for _, sh := range shares {
		if err := s.VerifyShare(digest, sh); err != nil {
			return Proof{}, err
		}
	}
	return Proof{Sig: s.proofTag(digest)}, nil
}

// proofTag derives the canonical proof bytes for digest. The simulated
// scheme behaves like a unique threshold signature: any quorum yields the
// same proof, matching threshold BLS semantics.
func (s *SimSuite) proofTag(digest types.Hash) []byte {
	// Key the proof on the dealer master key so only the dealer's universe
	// verifies it.
	mac := hmac.New(sha256.New, s.master)
	mac.Write(digest[:])
	full := mac.Sum(nil)
	out := make([]byte, SimProofSize)
	for i := range out {
		out[i] = full[i%len(full)]
	}
	return out
}

// VerifyProof implements Suite.
func (s *SimSuite) VerifyProof(digest types.Hash, proof Proof) error {
	if !hmac.Equal(proof.Sig, s.proofTag(digest)) {
		return ErrBadProof
	}
	return nil
}
