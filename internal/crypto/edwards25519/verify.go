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
// The speed comes from the key: both scalars are split at 2^128, and the
// key's tables for A and 2^128·A beside the static ones for B and 2^128·B
// make [S]B − [k]A one Straus loop of 129 doublings instead of 253. A
// key's first check builds its two tables: 15 KB, and 80–100 µs on a
// 2-vCPU Xeon where one table takes 27–39 µs. They are kept for as long as
// the key is.
func Verify(key *PublicKey, msg, sig []byte) bool {
	if len(sig) != signatureSize || sig[63]&224 != 0 {
		return false
	}
	aLo, aHi, ok := key.preparedSplit()
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
	sLo, sHi := splitNAF(&s)
	kLo, kHi := splitNAF(&k)

	bLo, bHi := basepointNafTable(), basepointHiNafTable()
	var (
		v    Point
		tmp1 projP1xP1
		tmp2 projP2
	)
	tmp2.Zero()
	// A width-8 NAF of a number below 2^128 has no digit above bit 128.
	for i := 128; i >= 0; i-- {
		tmp1.Double(&tmp2)
		addDigit8(&v, &tmp1, bLo, sLo[i])
		addDigit8(&v, &tmp1, bHi, sHi[i])
		addDigit8(&v, &tmp1, aLo, -kLo[i])
		addDigit8(&v, &tmp1, aHi, -kHi[i])
		tmp2.FromP1xP1(&tmp1)
	}
	var enc [32]byte
	return bytes.Equal(v.fromP1xP1(&tmp1).bytes(&enc), sig[:32])
}

// verifyScratch is Verify's math/big and hashing state, pooled so that a
// warm check allocates nothing. buf holds R ‖ A ‖ msg, and msg is a digest
// in every caller, so it stays small.
type verifyScratch struct {
	s, h, k, q big.Int
	buf        []byte
}

var scratchPool = sync.Pool{New: func() any { return new(verifyScratch) }}

// splitNAF returns the width-8 NAFs of the low and the high 128 bits of the
// little-endian scalar x.
func splitNAF(x *[32]byte) (lo, hi [256]int8) {
	var l, h [32]byte
	copy(l[:16], x[:16])
	copy(h[:16], x[16:])
	return nonAdjacentForm(&l, 8), nonAdjacentForm(&h, 8)
}
