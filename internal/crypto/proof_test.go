package crypto

import (
	"crypto/ed25519"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"leopard/internal/crypto/edwards25519"
	"leopard/internal/types"
)

// stdlibVerifyProof is the proof check the ed25519 suite made before proofs
// were batch-verified, kept as the reference: the same bitmap and length
// checks as VerifyProof, then crypto/ed25519.Verify on each signature.
func stdlibVerifyProof(s *Ed25519Suite, digest types.Hash, proof Proof) bool {
	bitmapLen := (s.params.N + 7) / 8
	if len(proof.Sig) < bitmapLen {
		return false
	}
	bitmap, sigs := proof.Sig[:bitmapLen], proof.Sig[bitmapLen:]
	if rem := s.params.N % 8; rem != 0 && bitmap[bitmapLen-1]&^byte(1<<rem-1) != 0 {
		return false
	}
	var signers []int
	for i := 0; i < s.params.N; i++ {
		if bitmap[i/8]&(1<<(uint(i)%8)) != 0 {
			signers = append(signers, i)
		}
	}
	if len(signers) != s.params.Quorum() || len(sigs) != len(signers)*ed25519.SignatureSize {
		return false
	}
	for i, id := range signers {
		if !ed25519.Verify(pubKey(s, types.ReplicaID(id)), digest[:], sigs[i*ed25519.SignatureSize:(i+1)*ed25519.SignatureSize]) {
			return false
		}
	}
	return true
}

// pubKey is signer's public key in crypto/ed25519's form, for the
// reference checks.
func pubKey(s *Ed25519Suite, signer types.ReplicaID) ed25519.PublicKey {
	return s.privs[signer].Public().(ed25519.PublicKey)
}

// quorumProof combines the shares of signers on digest.
func quorumProof(t testing.TB, s *Ed25519Suite, digest types.Hash, signers []types.ReplicaID) Proof {
	t.Helper()
	var shares []Share
	for _, id := range signers {
		sh, err := s.Sign(id, digest)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	proof, err := s.Combine(digest, shares)
	if err != nil {
		t.Fatal(err)
	}
	return proof
}

// firstQuorum lists the ids 0 … Quorum()-1.
func firstQuorum(s *Ed25519Suite) []types.ReplicaID {
	ids := make([]types.ReplicaID, s.params.Quorum())
	for i := range ids {
		ids[i] = types.ReplicaID(i)
	}
	return ids
}

// Little-endian field and group constants for building encodings by hand.
var (
	fieldP     = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	groupOrder = new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 252), mustBig("27742317777372353535851937790883648493"))
	// curveD is −121665/121666 mod p.
	curveD = new(big.Int).Mod(new(big.Int).Mul(big.NewInt(-121665), new(big.Int).ModInverse(big.NewInt(121666), fieldP)), fieldP)
)

func mustBig(dec string) *big.Int {
	x, ok := new(big.Int).SetString(dec, 10)
	if !ok {
		panic(dec)
	}
	return x
}

func leToBig(b []byte) *big.Int {
	be := slices.Clone(b)
	slices.Reverse(be)
	return new(big.Int).SetBytes(be)
}

func bigToLE(x *big.Int) []byte {
	out := x.FillBytes(make([]byte, 32))
	slices.Reverse(out)
	return out
}

// secretScalar is the signing scalar crypto/ed25519 derives from a key seed.
func secretScalar(seed []byte) *big.Int {
	h := sha512.Sum512(seed)
	h[0] &= 248
	h[31] &= 63
	h[31] |= 64
	return leToBig(h[:32])
}

// plusOrderTwo encodes P + (0, −1) = (−x, −y), P given by its encoding.
func plusOrderTwo(enc []byte) []byte {
	b := slices.Clone(enc)
	sign := b[31] >> 7
	b[31] &= 0x7f
	y := new(big.Int).Mod(new(big.Int).Neg(leToBig(b)), fieldP)
	out := bigToLE(y)
	out[31] |= (sign ^ 1) << 7
	return out
}

// smallOrderSig signs digest as signer with R = [r]B + (0, −1) and
// S = r + k·a: R carries an order-2 component, so crypto/ed25519.Verify
// refuses the signature and the cofactored rule accepts it.
func smallOrderSig(s *Ed25519Suite, signer types.ReplicaID, digest types.Hash) []byte {
	rSeed := sha512.Sum512(append([]byte("nonce"), digest[:]...))
	rPub := ed25519.NewKeyFromSeed(rSeed[:32]).Public().(ed25519.PublicKey)
	r := secretScalar(rSeed[:32])
	R := plusOrderTwo(rPub)
	kHash := sha512.Sum512(slices.Concat(R, pubKey(s, signer), digest[:]))
	k := leToBig(kHash[:])
	S := new(big.Int).Mul(k, secretScalar(s.privs[signer].Seed()))
	S.Add(S, r).Mod(S, groupOrder)
	return append(R, bigToLE(S)...)
}

// TestVerifyProofMatchesStdlib: the batch check and crypto/ed25519.Verify,
// signature by signature, agree on valid proofs and on every way of
// spoiling one: a bit flipped in any R, any S or the digest, a wrong
// signer, a non-canonical S (S+l) and a non-canonical R (y ≥ p).
func TestVerifyProofMatchesStdlib(t *testing.T) {
	for _, n := range []int{4, 7, 16} {
		s, err := NewEd25519Suite(n, []byte("differential"))
		if err != nil {
			t.Fatal(err)
		}
		bitmapLen := (n + 7) / 8
		for trial := 0; trial < 3; trial++ {
			digest := HashBytes([]byte(fmt.Sprintf("n=%d trial=%d", n, trial)))
			// Signers other than the first quorum too: skip replica trial.
			var signers []types.ReplicaID
			for i := 0; len(signers) < s.params.Quorum(); i++ {
				if i != trial {
					signers = append(signers, types.ReplicaID(i))
				}
			}
			valid := quorumProof(t, s, digest, signers)
			check := func(name string, d types.Hash, p Proof, want bool) {
				t.Helper()
				ref := stdlibVerifyProof(s, d, p)
				got := s.VerifyProof(d, p) == nil
				if ref != want || got != want {
					t.Errorf("n=%d trial %d, %s: batch %v, stdlib %v, want %v", n, trial, name, got, ref, want)
				}
			}
			mutate := func(f func(b []byte)) Proof {
				b := slices.Clone(valid.Sig)
				f(b)
				return Proof{Sig: b}
			}
			check("valid", digest, valid, true)
			for i := 0; i < len(signers); i++ {
				sig := bitmapLen + i*ed25519.SignatureSize
				for _, off := range []int{0, 17, 31, 32, 45, 63} {
					for _, bit := range []byte{0x01, 0x80} {
						check(fmt.Sprintf("sig %d byte %d ^%#x", i, off, bit), digest,
							mutate(func(b []byte) { b[sig+off] ^= bit }), false)
					}
				}
				check(fmt.Sprintf("sig %d S+l", i), digest, mutate(func(b []byte) {
					S := leToBig(b[sig+32 : sig+64])
					copy(b[sig+32:], bigToLE(S.Add(S, groupOrder)))
				}), false)
				check(fmt.Sprintf("sig %d R with y ≥ p", i), digest, mutate(func(b []byte) {
					// y = p + 1 names the identity's y = 1 non-canonically.
					copy(b[sig:], bigToLE(new(big.Int).Add(fieldP, big.NewInt(1))))
				}), false)
			}
			for bit := 0; bit < 256; bit += 37 {
				d := digest
				d[bit/8] ^= 1 << (bit % 8)
				check(fmt.Sprintf("digest bit %d", bit), d, valid, false)
			}
			// The bitmap names replica trial, which did not sign, in place
			// of signers[0]: some signature is read under a wrong key.
			check(fmt.Sprintf("replica %d named for %d", trial, signers[0]), digest, mutate(func(b []byte) {
				b[signers[0]/8] &^= 1 << (signers[0] % 8)
				b[trial/8] |= 1 << (trial % 8)
			}), false)
		}
	}
}

// TestSmallOrderRIsTheOneDivergence pins where the proof rule and
// crypto/ed25519.Verify part: a signature whose R is [r]B + (0, −1) with
// S = r + k·a. Verify refuses it; the cofactored equation holds whatever
// the weights, so a proof carrying it is accepted under every seed.
func TestSmallOrderRIsTheOneDivergence(t *testing.T) {
	s, err := NewEd25519Suite(4, []byte("divergence"))
	if err != nil {
		t.Fatal(err)
	}
	digest := HashBytes([]byte("small order R"))
	for signer := types.ReplicaID(0); signer < 3; signer++ {
		odd := smallOrderSig(s, signer, digest)
		if ed25519.Verify(pubKey(s, signer), digest[:], odd) {
			t.Fatal("crypto/ed25519.Verify accepted R with an order-2 component")
		}
		proof := quorumProof(t, s, digest, firstQuorum(s))
		copy(proof.Sig[1+int(signer)*ed25519.SignatureSize:], odd)
		if stdlibVerifyProof(s, digest, proof) {
			t.Fatal("the stdlib reference accepted the proof")
		}
		if err := s.VerifyProof(digest, proof); err != nil {
			t.Fatalf("signer %d: %v", signer, err)
		}
		keys := s.keys[:3]
		for seed := 0; seed < 8; seed++ {
			if !edwards25519.VerifyBatch(keys, digest[:], proof.Sig[1:], []byte{byte(seed)}) {
				t.Fatalf("signer %d: refused under coefficient seed %d", signer, seed)
			}
		}
	}
}

// TestVerifyProofRefusesExtraSigners: a proof names exactly 2f+1 signers.
// One with 2f+2 valid signatures — a σ1 re-encoded with one more share —
// is refused, so one set of shares has one proof encoding per signer set
// Combine can choose.
func TestVerifyProofRefusesExtraSigners(t *testing.T) {
	s, err := NewEd25519Suite(4, []byte("extra"))
	if err != nil {
		t.Fatal(err)
	}
	digest := HashBytes([]byte("σ1"))
	proof := quorumProof(t, s, digest, firstQuorum(s))
	extra, err := s.Sign(3, digest)
	if err != nil {
		t.Fatal(err)
	}
	wide := append(slices.Clone(proof.Sig), extra.Sig...)
	wide[0] |= 1 << 3
	err = s.VerifyProof(digest, Proof{Sig: wide})
	if !errors.Is(err, ErrBadProof) {
		t.Fatalf("a proof of 2f+2 valid signatures: %v", err)
	}
}

// TestCommitteeKeysHavePrimeOrder: [l]A = O for every key the suite deals,
// which is why the proof rule accepts all that crypto/ed25519.Verify does.
// The multiplication is an independent affine implementation over
// math/big; (0, −1) added to a key shows it can tell.
func TestCommitteeKeysHavePrimeOrder(t *testing.T) {
	for _, n := range []int{4, 16} {
		s, err := NewEd25519Suite(n, []byte("router-seed"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if p := affineDecode(t, pubKey(s, types.ReplicaID(i))); !affineMul(groupOrder, p).isIdentity() {
				t.Errorf("n=%d key %d: [l]A is not the identity", n, i)
			}
		}
		if p := affineDecode(t, plusOrderTwo(pubKey(s, 0))); affineMul(groupOrder, p).isIdentity() {
			t.Fatal("[l](A + (0,−1)) is the identity: the check cannot tell")
		}
	}
}

type affinePoint struct{ x, y *big.Int }

func (p affinePoint) isIdentity() bool { return p.x.Sign() == 0 && p.y.Cmp(big.NewInt(1)) == 0 }

func affineDecode(t *testing.T, enc []byte) affinePoint {
	t.Helper()
	b := slices.Clone(enc)
	sign := uint(b[31] >> 7)
	b[31] &= 0x7f
	y := leToBig(b)
	y2 := new(big.Int).Mul(y, y)
	u := new(big.Int).Sub(y2, big.NewInt(1))
	v := new(big.Int).Add(new(big.Int).Mul(curveD, y2), big.NewInt(1))
	x2 := u.Mul(u, v.ModInverse(v, fieldP)).Mod(u, fieldP)
	x := new(big.Int).ModSqrt(x2, fieldP)
	if x == nil {
		t.Fatalf("%x is not a point", enc)
	}
	if x.Bit(0) != sign {
		x.Sub(fieldP, x)
	}
	return affinePoint{x, y}
}

// affineAdd is the twisted Edwards addition law with a = −1.
func affineAdd(p, q affinePoint) affinePoint {
	mod := func(x *big.Int) *big.Int { return x.Mod(x, fieldP) }
	xx := mod(new(big.Int).Mul(p.x, q.x))
	yy := mod(new(big.Int).Mul(p.y, q.y))
	dxy := mod(new(big.Int).Mul(curveD, mod(new(big.Int).Mul(xx, yy))))
	xNum := mod(new(big.Int).Add(new(big.Int).Mul(p.x, q.y), new(big.Int).Mul(p.y, q.x)))
	xDen := new(big.Int).Add(big.NewInt(1), dxy)
	yDen := mod(new(big.Int).Sub(big.NewInt(1), dxy))
	return affinePoint{
		mod(xNum.Mul(xNum, xDen.ModInverse(xDen, fieldP))),
		mod(new(big.Int).Mul(new(big.Int).Add(yy, xx), yDen.ModInverse(yDen, fieldP))),
	}
}

func affineMul(k *big.Int, p affinePoint) affinePoint {
	acc := affinePoint{big.NewInt(0), big.NewInt(1)}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = affineAdd(acc, acc)
		if k.Bit(i) == 1 {
			acc = affineAdd(acc, p)
		}
	}
	return acc
}

// FuzzVerifyProof: on any digest and proof bytes the batch check gives
// the answer of crypto/ed25519.Verify applied signature by signature. The
// corpus starts from valid proofs at n=4 and the encodings the rule
// refuses: S+l and an R with y ≥ p.
func FuzzVerifyProof(f *testing.F) {
	s, err := NewEd25519Suite(4, []byte("fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		digest := HashBytes([]byte{byte(i)})
		proof := quorumProof(f, s, digest, []types.ReplicaID{types.ReplicaID(i), 3, types.ReplicaID((i + 1) % 3)})
		f.Add(digest[:], proof.Sig)
		sPlusL := slices.Clone(proof.Sig)
		S := leToBig(sPlusL[1+32 : 1+64])
		copy(sPlusL[1+32:], bigToLE(S.Add(S, groupOrder)))
		f.Add(digest[:], sPlusL)
		highY := slices.Clone(proof.Sig)
		copy(highY[1:], bigToLE(new(big.Int).Add(fieldP, big.NewInt(1))))
		f.Add(digest[:], highY)
	}
	f.Fuzz(func(t *testing.T, d, proof []byte) {
		var digest types.Hash
		copy(digest[:], d)
		got := s.VerifyProof(digest, Proof{Sig: proof}) == nil
		if want := stdlibVerifyProof(s, digest, Proof{Sig: proof}); got != want {
			t.Fatalf("batch %v, crypto/ed25519 %v", got, want)
		}
	})
}

// BenchmarkVerifyProof: one σ1/σ2 proof check of the ed25519 suite at
// n = 4, 16 and 31 (2f+1 = 3, 11 and 21 signatures), as one batch and as
// the signature-by-signature crypto/ed25519 loop it replaced. Each key's
// table is built before the timer starts.
func BenchmarkVerifyProof(b *testing.B) {
	for _, n := range []int{4, 16, 31} {
		s, err := NewEd25519Suite(n, []byte("bench"))
		if err != nil {
			b.Fatal(err)
		}
		digest := HashBytes([]byte("benchmark"))
		proof := quorumProof(b, s, digest, firstQuorum(s))
		b.Run(fmt.Sprintf("n=%d/batch", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := s.VerifyProof(digest, proof); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/stdlib", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if !stdlibVerifyProof(s, digest, proof) {
					b.Fatal("proof refused")
				}
			}
		})
	}
}
