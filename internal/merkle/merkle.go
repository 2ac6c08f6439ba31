// Package merkle implements a binary Merkle tree with inclusion proofs.
//
// Leopard's retrieval mechanism (Alg. 3) builds a Merkle tree over the
// erasure-coded chunks of a datablock so that a replica can verify each
// received chunk individually against the tree root before decoding.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"leopard/internal/types"
)

// Errors returned by proof verification.
var (
	ErrEmptyTree    = errors.New("merkle: tree has no leaves")
	ErrIndexRange   = errors.New("merkle: leaf index out of range")
	ErrProofInvalid = errors.New("merkle: proof does not verify against root")
)

// Domain-separation prefixes prevent second-preimage attacks where an inner
// node is presented as a leaf.
var (
	leafPrefix  = []byte{0x00}
	innerPrefix = []byte{0x01}
)

// Tree is an immutable Merkle tree over a fixed set of leaves. Odd nodes at
// each level are promoted (not duplicated), so the tree is well-defined for
// any leaf count >= 1.
type Tree struct {
	levels [][]types.Hash // levels[0] = leaf hashes, last level = [root]
}

// Per-node hashing deliberately calls sha256.New/Write/Sum with the
// concrete digest in one function: the compiler devirtualizes and
// stack-allocates the whole state, so each node hash is allocation-free (a
// sync.Pool of hash.Hash interfaces measures strictly worse — the
// interface call forces Sum's output to escape). BenchmarkMerkleNew pins
// the resulting allocs/op.

func hashLeaf(index int, data []byte) types.Hash {
	h := sha256.New()
	h.Write(leafPrefix)
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(index))
	h.Write(idx[:])
	h.Write(data)
	var out types.Hash
	h.Sum(out[:0])
	return out
}

func hashInner(left, right types.Hash) types.Hash {
	h := sha256.New()
	h.Write(innerPrefix)
	h.Write(left[:])
	h.Write(right[:])
	var out types.Hash
	h.Sum(out[:0])
	return out
}

// New builds a tree over the given leaves. The levels are sliced out of
// one contiguous backing array sized by summing the level widths, so
// construction allocates O(1) times regardless of leaf count.
func New(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	total, depth := 0, 0
	for w := len(leaves); ; w = (w + 1) / 2 {
		total += w
		depth++
		if w == 1 {
			break
		}
	}
	backing := make([]types.Hash, total)
	level := backing[:len(leaves)]
	backing = backing[len(leaves):]
	for i, l := range leaves {
		level[i] = hashLeaf(i, l)
	}
	t := &Tree{levels: append(make([][]types.Hash, 0, depth), level)}
	for len(level) > 1 {
		next := backing[:(len(level)+1)/2]
		backing = backing[len(next):]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next[i/2] = hashInner(level[i], level[i+1])
			} else {
				next[i/2] = level[i] // promote odd node
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the tree root.
func (t *Tree) Root() types.Hash { return t.levels[len(t.levels)-1][0] }

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return len(t.levels[0]) }

// ProofStep is one sibling hash on the path from a leaf to the root.
type ProofStep struct {
	Hash  types.Hash
	Right bool // sibling is on the right of the running hash
}

// Proof is an inclusion proof for one leaf.
type Proof struct {
	Index int
	Steps []ProofStep
}

// Prove returns the inclusion proof for leaf index.
func (t *Tree) Prove(index int) (Proof, error) {
	if index < 0 || index >= t.LeafCount() {
		return Proof{}, fmt.Errorf("%w: %d of %d", ErrIndexRange, index, t.LeafCount())
	}
	p := Proof{Index: index, Steps: make([]ProofStep, 0, len(t.levels)-1)}
	pos := index
	for _, level := range t.levels[:len(t.levels)-1] {
		sibling := pos ^ 1
		if sibling < len(level) {
			p.Steps = append(p.Steps, ProofStep{Hash: level[sibling], Right: sibling > pos})
		}
		pos /= 2
	}
	return p, nil
}

// AppendPath appends the hashes of Prove(index)'s steps to dst, bottom-up
// and without their sides: the compact proof for a verifier that knows
// LeafCount and derives the sides with PathShape. index must be in range.
func (t *Tree) AppendPath(dst []byte, index int) []byte {
	pos := index
	for _, level := range t.levels[:len(t.levels)-1] {
		if sibling := pos ^ 1; sibling < len(level) {
			dst = append(dst, level[sibling][:]...)
		}
		pos /= 2
	}
	return dst
}

// PathShape returns the shape of leaf index's proof in a tree of count
// leaves (index < count <= 1<<32, so at most 32 steps): how many steps it
// has — a level where the node is the odd one out promotes it and adds
// none — and, as bit i of right, whether step i's sibling is on the right.
func PathShape(index, count int) (steps int, right uint32) {
	for pos, width := index, count; width > 1; pos, width = pos/2, (width+1)/2 {
		if sibling := pos ^ 1; sibling < width {
			if sibling > pos {
				right |= 1 << steps
			}
			steps++
		}
	}
	return steps, right
}

// Root returns the root that leafData, as leaf p.Index, hashes up to along
// p.Steps.
func (p Proof) Root(leafData []byte) types.Hash {
	running := hashLeaf(p.Index, leafData)
	for _, step := range p.Steps {
		if step.Right {
			running = hashInner(running, step.Hash)
		} else {
			running = hashInner(step.Hash, running)
		}
	}
	return running
}

// Verify checks that leafData is the leaf at proof.Index under root.
func Verify(root types.Hash, proof Proof, leafData []byte) error {
	if proof.Index < 0 {
		return ErrIndexRange
	}
	if proof.Root(leafData) != root {
		return ErrProofInvalid
	}
	return nil
}
