package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"leopard/internal/merkle"
	"leopard/internal/types"
)

// A batch share is one signature serving many digests. SignBatch builds a
// Merkle tree over the digests (leaf i commits to its index and digest i),
// signs batchDigest(leaf count, root) once, and gives digest i the share
//
//	Sig = plain signature ‖ u32 index ‖ u32 count ‖ sibling hashes, bottom-up
//
// which VerifyShare accepts for digest i and nothing else: the path is
// walked from the caller's digest, so another digest yields another root;
// the sides of the siblings and how many there are follow from (index,
// count) alone, and count is under the signature, so a leaf cannot be
// moved and an inner node — which would need a shorter path — cannot be
// passed off as a leaf. The header is fixed-width and the length exact, so
// a (tree, leaf) pair has one encoding.

// batchDomain separates the digest a batch signature covers from every
// digest signed plainly: those are hashes of protocol content, none of
// which starts with this tag, so neither kind of signature can stand in
// for the other.
const batchDomain = "leopard/batch-share/v1"

const (
	hashSize        = len(types.Hash{})
	batchHeaderSize = 8  // index and count, big-endian uint32 each
	maxBatchSteps   = 32 // a path in a tree of at most 1<<32 leaves
	// maxBatchLeaves keeps index and count inside int on every platform.
	maxBatchLeaves = math.MaxInt32
)

// batchDigest is what the signer of a batch signs.
func batchDigest(count int, root types.Hash) types.Hash {
	var buf [len(batchDomain) + 4 + len(root)]byte
	off := copy(buf[:], batchDomain)
	binary.BigEndian.PutUint32(buf[off:], uint32(count))
	copy(buf[off+4:], root[:])
	return sha256.Sum256(buf[:])
}

// SignBatch returns signer's share on each of digests, positionally, for
// the price of one s.Sign: the shares are in batch form (see above), each
// valid on its own under s.VerifyShare for its own digest. Each Sig is a
// separate, exactly sized allocation, so keeping one share keeps nothing of
// the others. It is a function over Suite rather than a method so that a
// decorating Suite sees — and needs to implement — only the one Sign.
func SignBatch(s Suite, signer types.ReplicaID, digests []types.Hash) ([]Share, error) {
	count := len(digests)
	if count == 0 {
		return nil, nil
	}
	if count > maxBatchLeaves {
		return nil, fmt.Errorf("crypto: batch of %d digests exceeds %d", count, maxBatchLeaves)
	}
	leaves := make([][]byte, count)
	for i := range digests {
		leaves[i] = digests[i][:]
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		return nil, err
	}
	root, err := s.Sign(signer, batchDigest(count, tree.Root()))
	if err != nil {
		return nil, err
	}
	shares := make([]Share, count)
	for i := range shares {
		steps, _ := merkle.PathShape(i, count)
		sig := make([]byte, 0, len(root.Sig)+batchHeaderSize+steps*hashSize)
		sig = append(sig, root.Sig...)
		sig = binary.BigEndian.AppendUint32(sig, uint32(i))
		sig = binary.BigEndian.AppendUint32(sig, uint32(count))
		shares[i] = Share{Signer: root.Signer, Sig: tree.AppendPath(sig, i)}
	}
	return shares, nil
}

// openShare reduces verifying sig as a share on digest to one plain check:
// it returns the digest and the plainSize-byte signature the suite must
// verify. A sig of plainSize bytes is a plain share and comes back as it
// is; any other length must parse as a batch share — exact length for its
// (index, count), index below count — and comes back as the tagged root
// that digest hashes up to along its path, with the signature in front of
// the header. It allocates nothing.
func openShare(plainSize int, digest types.Hash, sig []byte) (types.Hash, []byte, bool) {
	if len(sig) == plainSize {
		return digest, sig, true
	}
	if len(sig) < plainSize+batchHeaderSize {
		return types.Hash{}, nil, false
	}
	header, path := sig[plainSize:plainSize+batchHeaderSize], sig[plainSize+batchHeaderSize:]
	index, count := binary.BigEndian.Uint32(header), binary.BigEndian.Uint32(header[4:])
	if index >= count || count > maxBatchLeaves {
		return types.Hash{}, nil, false
	}
	n, right := merkle.PathShape(int(index), int(count))
	if len(path) != n*hashSize {
		return types.Hash{}, nil, false
	}
	var steps [maxBatchSteps]merkle.ProofStep
	for i := 0; i < n; i++ {
		copy(steps[i].Hash[:], path[i*hashSize:])
		steps[i].Right = right&(1<<i) != 0
	}
	root := merkle.Proof{Index: int(index), Steps: steps[:n]}.Root(digest[:])
	return batchDigest(int(count), root), sig[:plainSize], true
}
