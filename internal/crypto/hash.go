// Package crypto provides hashing helpers and the threshold-signature Suite
// abstraction used by all protocols in this repository.
//
// The Leopard paper instantiates votes with threshold BLS (κ = 48 bytes).
// Pairing-based BLS is not implementable with the Go standard library, so
// this package offers two Suite implementations (README.md §"Layout"):
//
//   - Ed25519Suite: a genuine (2f+1, n) aggregate multisignature built from
//     crypto/ed25519 (bitmap + concatenated signatures). Unforgeable and
//     publicly verifiable; used in unit tests and real TCP deployments.
//   - SimSuite: a deterministic keyed-MAC scheme with configurable wire
//     sizes, used by the large-scale network simulations where only the
//     *size* of votes/proofs affects the measured behaviour.
//
// The proof rule. Ed25519Suite checks a share with edwards25519.Verify,
// which is crypto/ed25519.Verify's rule on the signer's comb.
// It checks a proof — and the quorum Combine signs into one — as one batch
// (edwards25519.VerifyBatch), under which a signature (R, S) by key A on
// digest M is valid when S is below the group order l, R is a canonical
// point encoding, and the cofactored equation [8](R + [k]A − [S]B) = O
// holds, k = SHA-512(R ‖ A ‖ M). The dealt keys have prime order, so the
// rule accepts every signature crypto/ed25519.Verify accepts; beyond those
// it accepts only signatures whose R carries a small-order component,
// which only the key's owner can make, and every replica accepts those
// alike whatever the batch's weights are. Every proof a replica admits —
// σ1, σ2, checkpoint, view change, state transfer — goes through
// VerifyProof, so honest replicas agree on every proof. (Zcash's ZIP 215
// makes the cofactored equation its rule for the same reason: batch and
// single checks must accept the same signatures.)
package crypto

import (
	"crypto/sha256"
	"encoding/binary"

	"leopard/internal/types"
)

// HashBytes returns the SHA-256 digest of data.
func HashBytes(data []byte) types.Hash {
	return sha256.Sum256(data)
}

// HashConcat hashes the concatenation of the given byte slices.
func HashConcat(parts ...[]byte) types.Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// HashDatablock returns the digest identifying a datablock: SHA-256 over
// the generator, the counter, the request count and one
// Request.AppendDigestInput term per request. The payload of a request
// whose PayloadDigest is set (at the replica that admitted it) is not
// hashed again.
func HashDatablock(d *types.Datablock) types.Hash {
	h := sha256.New()
	var tmp [48]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(d.Ref.Generator))
	binary.BigEndian.PutUint64(tmp[4:12], d.Ref.Counter)
	binary.BigEndian.PutUint32(tmp[12:16], uint32(len(d.Requests)))
	h.Write(tmp[:16])
	for _, r := range d.Requests {
		h.Write(r.AppendDigestInput(tmp[:0]))
	}
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// HashBFTblock returns the digest of a BFTblock's identity-bearing fields.
func HashBFTblock(b *types.BFTblock) types.Hash {
	buf := make([]byte, 0, 20+32*len(b.Content))
	buf = b.AppendDigestInput(buf)
	return sha256.Sum256(buf)
}

// HashOfHash chains a digest, used for second-round votes on H(σ1).
func HashOfHash(h types.Hash) types.Hash {
	return sha256.Sum256(h[:])
}
