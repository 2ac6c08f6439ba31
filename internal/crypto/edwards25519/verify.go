package edwards25519

import (
	"bytes"
	"crypto/sha512"
	"math/big"
	"sync"
)

// Verify reports whether sig is a valid Ed25519 signature of msg under key,
// by exactly crypto/ed25519.Verify's rule: sig is 64 bytes R ‖ S, the top
// three bits of its last byte are clear, S is below l, the key decodes to a
// point (non-canonical encodings included), and the cofactorless
// [S]B − [k]A, with k = SHA-512(R ‖ A ‖ msg) mod l, encodes to R byte for
// byte. So R must be canonical, and no small-order component is forgiven.
//
// The speed comes from the key: its comb, the tables of 2^(32j)·A for
// j = 0…7, together with the static comb of B, makes [S]B − [k]A one
// Straus loop of 32 doublings instead of 253 (see combFold). A key's first check builds
// its comb: about 60 KB, and 0.36–0.49 ms on one CPU of a 2-vCPU Xeon,
// where a warm check takes 35–55 µs. It is kept for as long as the key is.
func Verify(key *PublicKey, msg, sig []byte) bool {
	if len(sig) != signatureSize || sig[63]&224 != 0 {
		return false
	}
	aComb, ok := key.preparedComb()
	if !ok {
		return false
	}
	sc := scratchPool.Get().(*verifyScratch)
	defer scratchPool.Put(sc)
	if setLE(&sc.s, sig[32:]).Cmp(order) >= 0 {
		return false
	}
	sc.buf = append(append(append(sc.buf[:0], sig[:32]...), key.enc[:]...), msg...)
	digest := sha512.Sum512(sc.buf)
	sc.q.QuoRem(setLE(&sc.h, digest[:]), order, &sc.k)
	s, k := scalarToLE(&sc.s), scalarToLE(&sc.k)
	var (
		v   Point
		enc [32]byte
	)
	return bytes.Equal(combFold(&v, basepointComb(), aComb, &s, &k).bytes(&enc), sig[:32])
}

// combFold sets v to [s]B − [k]A and returns v, for little-endian scalars s
// and k below 2^255 and the combs of B and A. Each scalar gets one width-8
// NAF. Its digit d at position p = 32j + r stands for d·2^r·(2^(32j)·P),
// P being B or A, so it is added from comb entry j while r doublings are
// still to come. All 16 tables share one loop of 32 doublings.
func combFold(v *Point, bComb, aComb *combTable, s, k *[32]byte) *Point {
	sNaf, kNaf := nonAdjacentForm(s, 8), nonAdjacentForm(k, 8)
	var (
		tmp1 projP1xP1
		tmp2 projP2
	)
	tmp2.Zero()
	for r := combPieceBits - 1; r >= 0; r-- {
		tmp1.Double(&tmp2)
		for j := range combPieces {
			p := j*combPieceBits + r
			addDigit8(v, &tmp1, bComb[j], sNaf[p])
			addDigit8(v, &tmp1, aComb[j], -kNaf[p])
		}
		tmp2.FromP1xP1(&tmp1)
	}
	return v.fromP1xP1(&tmp1)
}

// verifyScratch is Verify's math/big and hashing state, pooled so that a
// warm check allocates nothing. buf holds R ‖ A ‖ msg, and msg is a digest
// in every caller, so it stays small.
type verifyScratch struct {
	s, h, k, q big.Int
	buf        []byte
}

var scratchPool = sync.Pool{New: func() any { return new(verifyScratch) }}
