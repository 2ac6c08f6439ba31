package crypto

import (
	"errors"
	"fmt"

	"leopard/internal/types"
)

// Errors returned by Suite implementations.
var (
	ErrBadShare        = errors.New("crypto: invalid signature share")
	ErrBadProof        = errors.New("crypto: invalid combined proof")
	ErrNotEnoughShares = errors.New("crypto: not enough shares to combine")
	ErrUnknownSigner   = errors.New("crypto: unknown signer id")
	ErrDuplicateSigner = errors.New("crypto: duplicate signer in share set")
)

// Share is one replica's threshold-signature share on a message digest.
// Sig is either plain — ShareSize() bytes, what Sign returns — or in the
// longer batch form SignBatch returns (batch.go): the signature over a
// batch root followed by this digest's inclusion path.
type Share struct {
	Signer types.ReplicaID
	Sig    []byte
}

// Proof is a combined (2f+1)-threshold signature: the O(1) acknowledgment
// multicast after each voting round.
type Proof struct {
	Sig []byte
}

// Suite is the (2f+1, n)-threshold signature abstraction from the paper:
// TSig / TVrf (share) / TSR (combine) / TVrf (proof).
//
// Who sees which form of share: execution replies are the one place batch
// shares are issued, so a verifier of standalone shares — a client counting
// reply shares toward its f+1 — calls VerifyShare and meets both forms
// without telling them apart. A proof has fixed-size slots, so whoever
// collects shares toward a Combine (votes, checkpoints, view change) must
// admit plain shares only, checking len(Sig) == ShareSize() before
// VerifyShare; Combine refuses anything else.
//
// Implementations must be safe for concurrent use.
type Suite interface {
	// Sign produces signer's plain share on digest.
	Sign(signer types.ReplicaID, digest types.Hash) (Share, error)
	// VerifyShare checks that share, in either form, is valid for digest
	// under the signer's key.
	VerifyShare(digest types.Hash, share Share) error
	// Combine aggregates at least Quorum() distinct valid plain shares into
	// a proof; a share of another size fails with ErrBadShare.
	Combine(digest types.Hash, shares []Share) (Proof, error)
	// VerifyProof checks a combined proof for digest under the master key.
	VerifyProof(digest types.Hash, proof Proof) error
	// ShareSize returns the wire size in bytes of one plain share (κ in the
	// paper).
	ShareSize() int
	// ProofSize returns the wire size in bytes of one combined proof.
	ProofSize() int
	// Params returns the quorum parameters the suite was set up for.
	Params() types.QuorumParams
}

// checkShareSet validates that shares are a quorum of plain shares (size
// bytes each) from distinct known signers. Shared helper for Combine
// implementations, which still verify each share.
func checkShareSet(q types.QuorumParams, size int, shares []Share) error {
	if len(shares) < q.Quorum() {
		return fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), q.Quorum())
	}
	seen := make(map[types.ReplicaID]struct{}, len(shares))
	for _, s := range shares {
		if int(s.Signer) >= q.N {
			return fmt.Errorf("%w: %d", ErrUnknownSigner, s.Signer)
		}
		if _, dup := seen[s.Signer]; dup {
			return fmt.Errorf("%w: %d", ErrDuplicateSigner, s.Signer)
		}
		if len(s.Sig) != size {
			return fmt.Errorf("%w: signer %d: %d bytes, a combinable share has %d", ErrBadShare, s.Signer, len(s.Sig), size)
		}
		seen[s.Signer] = struct{}{}
	}
	return nil
}
