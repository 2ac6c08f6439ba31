package crypto

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"leopard/internal/merkle"
	"leopard/internal/types"
)

// batchSizes covers the one-leaf tree, promoted odd nodes at several
// levels, a full tree, and the largest blocks the benchmark produces.
var batchSizes = []int{1, 2, 3, 5, 8, 300, 1000}

func batchDigests(n int) []types.Hash {
	out := make([]types.Hash, n)
	for i := range out {
		out[i] = HashBytes([]byte(fmt.Sprintf("reply-%d", i)))
	}
	return out
}

// countingSuite counts the Sign calls that reach the suite it decorates.
type countingSuite struct {
	Suite
	signs int
}

func (c *countingSuite) Sign(signer types.ReplicaID, digest types.Hash) (Share, error) {
	c.signs++
	return c.Suite.Sign(signer, digest)
}

// withHeader returns a copy of sh with its (index, count) header rewritten.
func withHeader(plainSize int, sh Share, index, count uint32) Share {
	sig := append([]byte(nil), sh.Sig...)
	binary.BigEndian.PutUint32(sig[plainSize:], index)
	binary.BigEndian.PutUint32(sig[plainSize+4:], count)
	return Share{Signer: sh.Signer, Sig: sig}
}

// probes are the leaves whose shares get the byte-by-byte treatment.
func probes(size int) []int {
	out := []int{0}
	for _, i := range []int{size / 2, size - 1} {
		if i != out[len(out)-1] {
			out = append(out, i)
		}
	}
	return out
}

// TestBatchShares: every share of a batch verifies for its own (signer,
// digest) and for nothing else, in exactly one encoding.
func TestBatchShares(t *testing.T) {
	const signer = 2
	for name, s := range suites(t, 4) {
		for _, size := range batchSizes {
			t.Run(fmt.Sprintf("%s/%d", name, size), func(t *testing.T) {
				plainSize := s.ShareSize()
				digests := batchDigests(size)
				counted := &countingSuite{Suite: s}
				shares, err := SignBatch(counted, signer, digests)
				if err != nil {
					t.Fatal(err)
				}
				if counted.signs != 1 {
					t.Fatalf("SignBatch made %d Sign calls, want 1", counted.signs)
				}
				if len(shares) != size {
					t.Fatalf("%d shares for %d digests", len(shares), size)
				}
				for i, sh := range shares {
					if sh.Signer != signer {
						t.Fatalf("share %d names signer %d", i, sh.Signer)
					}
					steps, _ := merkle.PathShape(i, size)
					if want := plainSize + batchHeaderSize + steps*hashSize; len(sh.Sig) != want || cap(sh.Sig) != want {
						t.Fatalf("share %d: len %d cap %d, want exactly %d", i, len(sh.Sig), cap(sh.Sig), want)
					}
					if err := s.VerifyShare(digests[i], sh); err != nil {
						t.Fatalf("share %d does not verify for its own digest: %v", i, err)
					}
					// Not for a neighbour's digest (all pairs below for the
					// probed leaves), and not under another signer.
					if size > 1 && s.VerifyShare(digests[(i+1)%size], sh) == nil {
						t.Fatalf("share %d verified for digest %d", i, (i+1)%size)
					}
					if s.VerifyShare(digests[i], Share{Signer: signer + 1, Sig: sh.Sig}) == nil {
						t.Fatalf("share %d verified under another signer", i)
					}
				}
				for _, i := range probes(size) {
					sh := shares[i]
					for j := range digests {
						if j != i && s.VerifyShare(digests[j], sh) == nil {
							t.Fatalf("share %d verified for digest %d", i, j)
						}
					}
					// Any one byte of signature, index, count or path.
					for b := range sh.Sig {
						bad := Share{Signer: signer, Sig: append([]byte(nil), sh.Sig...)}
						bad.Sig[b] ^= 0x01
						if s.VerifyShare(digests[i], bad) == nil {
							t.Fatalf("share %d verified with byte %d flipped", i, b)
						}
					}
					// One byte or one hash too short or too long.
					for _, resized := range [][]byte{
						sh.Sig[:len(sh.Sig)-1],
						append(append([]byte(nil), sh.Sig...), 0),
						append(append([]byte(nil), sh.Sig...), make([]byte, hashSize)...),
						append(append([]byte(nil), sh.Sig...), sh.Sig[len(sh.Sig)-hashSize:]...),
					} {
						if s.VerifyShare(digests[i], Share{Signer: signer, Sig: resized}) == nil {
							t.Fatalf("share %d verified at %d bytes, its length is %d", i, len(resized), len(sh.Sig))
						}
					}
					if len(sh.Sig) > plainSize+batchHeaderSize {
						if s.VerifyShare(digests[i], Share{Signer: signer, Sig: sh.Sig[:len(sh.Sig)-hashSize]}) == nil {
							t.Fatalf("share %d verified with its last hash cut off", i)
						}
					}
					// One encoding per (tree, leaf): the same signature and
					// path under any other header — another position,
					// another leaf count (including those with a path of
					// the same shape), index >= count, count 0 — is refused.
					for index := 0; index <= size+1; index++ {
						for count := 0; count <= 2*size+2; count++ {
							if size > 8 && index != i && count != size {
								continue // big trees: the row and the column through the real header
							}
							if index == i && count == size {
								continue
							}
							if s.VerifyShare(digests[i], withHeader(plainSize, sh, uint32(index), uint32(count))) == nil {
								t.Fatalf("share %d of %d verified as leaf %d of %d", i, size, index, count)
							}
						}
					}
					if s.VerifyShare(digests[i], withHeader(plainSize, sh, uint32(i), 1<<31)) == nil ||
						s.VerifyShare(digests[i], withHeader(plainSize, sh, uint32(i), 1<<32-1)) == nil {
						t.Fatalf("share %d verified under a leaf count beyond the bound", i)
					}
				}
			})
		}
	}
}

// TestBatchInnerNodeIsNotALeaf: the classic second-preimage move — present
// an inner node as a leaf of a shallower tree — fails twice over: a leaf is
// hashed under its own prefix, and the leaf count under the signature fixes
// the depth.
func TestBatchInnerNodeIsNotALeaf(t *testing.T) {
	for name, s := range suites(t, 4) {
		t.Run(name, func(t *testing.T) {
			plainSize := s.ShareSize()
			digests := batchDigests(4)
			shares, err := SignBatch(s, 1, digests)
			if err != nil {
				t.Fatal(err)
			}
			// Leaf 0's path is [leaf 1, node(2,3)]; leaf 2's is [leaf 3,
			// node(0,1)].
			path0 := shares[0].Sig[plainSize+batchHeaderSize:]
			path2 := shares[2].Sig[plainSize+batchHeaderSize:]
			var node01 types.Hash
			copy(node01[:], path2[hashSize:])
			node23 := path0[hashSize:]

			forged := append([]byte(nil), shares[0].Sig[:plainSize]...)
			forged = binary.BigEndian.AppendUint32(forged, 0)
			forged = binary.BigEndian.AppendUint32(forged, 2)
			forged = append(forged, node23...)
			if s.VerifyShare(node01, Share{Signer: 1, Sig: forged}) == nil {
				t.Fatal("inner node verified as leaf 0 of a two-leaf tree")
			}
			binary.BigEndian.PutUint32(forged[plainSize+4:], 4)
			if s.VerifyShare(node01, Share{Signer: 1, Sig: forged}) == nil {
				t.Fatal("inner node verified as a leaf with a one-step path in a four-leaf tree")
			}
		})
	}
}

// TestBatchAndPlainSignaturesDoNotMix: a plain share keeps verifying, and
// the signature inside a batch share is over the tagged (count, root)
// digest only — not over any digest of the batch, the root, or an untagged
// hash of the same fields — so it cannot be replayed as a plain share on
// anything the protocol signs, nor a plain share as a batch signature.
func TestBatchAndPlainSignaturesDoNotMix(t *testing.T) {
	for name, s := range suites(t, 4) {
		t.Run(name, func(t *testing.T) {
			plainSize := s.ShareSize()
			digests := batchDigests(5)
			shares, err := SignBatch(s, 3, digests)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := s.Sign(3, digests[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Sig) != plainSize {
				t.Fatalf("Sign returned %d bytes, ShareSize is %d", len(plain.Sig), plainSize)
			}
			if err := s.VerifyShare(digests[0], plain); err != nil {
				t.Fatalf("plain share: %v", err)
			}

			leaves := make([][]byte, len(digests))
			for i := range digests {
				leaves[i] = digests[i][:]
			}
			tree, err := merkle.New(leaves)
			if err != nil {
				t.Fatal(err)
			}
			root := tree.Root()
			var fields [4 + hashSize]byte
			binary.BigEndian.PutUint32(fields[:], uint32(len(digests)))
			copy(fields[4:], root[:])

			inner := Share{Signer: 3, Sig: shares[0].Sig[:plainSize]}
			if err := s.VerifyShare(batchDigest(len(digests), root), inner); err != nil {
				t.Fatalf("the batch signature is not over batchDigest(count, root): %v", err)
			}
			notSigned := append([]types.Hash{root, HashOfHash(root), sha256.Sum256(fields[:]),
				batchDigest(len(digests)+1, root), batchDigest(len(digests)-1, root)}, digests...)
			for _, d := range notSigned {
				if s.VerifyShare(d, inner) == nil {
					t.Fatalf("the batch signature verified as a plain share on %x", d[:4])
				}
			}
			// A plain share in front of a valid header and path.
			graft := append(append([]byte(nil), plain.Sig...), shares[0].Sig[plainSize:]...)
			if s.VerifyShare(digests[0], Share{Signer: 3, Sig: graft}) == nil {
				t.Fatal("a plain signature verified as a batch signature")
			}
		})
	}
}

// TestCombineRefusesBatchShare: a batch share is valid for its digest, so
// VerifyShare alone would let it into a quorum; a proof has no room for it.
func TestCombineRefusesBatchShare(t *testing.T) {
	digest := HashBytes([]byte("vote"))
	for name, s := range suites(t, 4) {
		t.Run(name, func(t *testing.T) {
			batch, err := SignBatch(s, 0, []types.Hash{digest})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.VerifyShare(digest, batch[0]); err != nil {
				t.Fatal(err)
			}
			shares := []Share{batch[0]}
			for i := 1; i < s.Params().Quorum(); i++ {
				sh, _ := s.Sign(types.ReplicaID(i), digest)
				shares = append(shares, sh)
			}
			if _, err := s.Combine(digest, shares); !errors.Is(err, ErrBadShare) {
				t.Fatalf("Combine with a batch-form share: %v, want ErrBadShare", err)
			}
		})
	}
}

func TestSignBatchEdges(t *testing.T) {
	for name, s := range suites(t, 4) {
		t.Run(name, func(t *testing.T) {
			counted := &countingSuite{Suite: s}
			if shares, err := SignBatch(counted, 0, nil); err != nil || shares != nil || counted.signs != 0 {
				t.Fatalf("empty batch: %v shares, err %v, %d Sign calls", shares, err, counted.signs)
			}
			if _, err := SignBatch(s, 4, batchDigests(2)); !errors.Is(err, ErrUnknownSigner) {
				t.Fatalf("unknown signer: %v", err)
			}
		})
	}
}

// FuzzOpenBatchShare: openShare never panics and never allocates whatever
// header it is handed (a path is walked in a fixed 32-step array), and
// what it accepts re-encodes, from the fields it read, to the bytes it was
// given — there is no second spelling of a share.
func FuzzOpenBatchShare(f *testing.F) {
	ed, _ := NewEd25519Suite(4, []byte("fuzz"))
	sim, _ := NewSimSuite(4, []byte("fuzz"))
	for _, size := range []int{1, 2, 3, 5, 300} {
		digests := batchDigests(size)
		for _, s := range []Suite{ed, sim} {
			shares, err := SignBatch(s, 1, digests)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(digests[size/2][:], shares[size/2].Sig)
			f.Add(digests[0][:], shares[size-1].Sig)
		}
	}
	f.Add([]byte{}, make([]byte, 64+8))
	f.Add([]byte{}, append(make([]byte, 64), 0xff, 0xff, 0xff, 0xfe, 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, d, sig []byte) {
		var digest types.Hash
		copy(digest[:], d)
		for _, plainSize := range []int{ed.ShareSize(), sim.ShareSize()} {
			if allocs := testing.AllocsPerRun(10, func() { openShare(plainSize, digest, sig) }); allocs != 0 {
				t.Fatalf("openShare allocated %v times on a %d-byte share", allocs, len(sig))
			}
			signed, plain, ok := openShare(plainSize, digest, sig)
			if !ok {
				continue
			}
			if len(sig) == plainSize {
				if signed != digest || !bytes.Equal(plain, sig) {
					t.Fatal("a plain share did not come back as it went in")
				}
				continue
			}
			index := binary.BigEndian.Uint32(sig[plainSize:])
			count := binary.BigEndian.Uint32(sig[plainSize+4:])
			if index >= count || count > maxBatchLeaves {
				t.Fatalf("accepted leaf %d of %d", index, count)
			}
			n, right := merkle.PathShape(int(index), int(count))
			if n > maxBatchSteps {
				t.Fatalf("leaf %d of %d has %d steps", index, count, n)
			}
			path := sig[plainSize+batchHeaderSize:]
			re := append([]byte(nil), plain...)
			re = binary.BigEndian.AppendUint32(re, index)
			re = binary.BigEndian.AppendUint32(re, count)
			steps := make([]merkle.ProofStep, n)
			for i := range steps {
				if len(path) < hashSize {
					t.Fatalf("accepted a path shorter than its %d steps", n)
				}
				copy(steps[i].Hash[:], path)
				steps[i].Right = right&(1<<i) != 0
				re = append(re, path[:hashSize]...)
				path = path[hashSize:]
			}
			if !bytes.Equal(re, sig) {
				t.Fatalf("accepted %d bytes that re-encode to %d", len(sig), len(re))
			}
			if want := batchDigest(int(count), merkle.Proof{Index: int(index), Steps: steps}.Root(digest[:])); signed != want {
				t.Fatal("opened to a digest other than the tagged root of the path")
			}
		}
	})
}

// BenchmarkVerifyShare: what a client pays per reply share, plain and in
// the batch form of a 300-request block (nine SHA-256 path steps on top).
func BenchmarkVerifyShare(b *testing.B) {
	s, _ := NewEd25519Suite(4, []byte("bench"))
	digests := batchDigests(300)
	batch, err := SignBatch(s, 0, digests)
	if err != nil {
		b.Fatal(err)
	}
	plain := make([]Share, len(digests))
	for i, d := range digests {
		plain[i], _ = s.Sign(0, d)
	}
	for _, form := range []struct {
		name   string
		shares []Share
	}{{"plain", plain}, {"batch-300", batch}} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.VerifyShare(digests[i%len(digests)], form.shares[i%len(digests)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSignBatch: the signer's side of a 300-request block.
func BenchmarkSignBatch(b *testing.B) {
	s, _ := NewEd25519Suite(4, []byte("bench"))
	digests := batchDigests(300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SignBatch(s, 0, digests); err != nil {
			b.Fatal(err)
		}
	}
}
