package edwards25519

import (
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"math/big"
	"sync"

	"leopard/internal/crypto/edwards25519/field"
)

// signatureSize is the size of an Ed25519 signature, R ‖ S.
const signatureSize = 64

// PublicKey is an Ed25519 public key held for Verify and VerifyBatch. Its
// width-8 NAF tables (64 affine multiples each, about 20 µs and 7.5 KB) are
// allocated and built on first use, so holding many keys costs nothing
// until one of them is checked: VerifyBatch builds the table of A, Verify
// that one and the other seven of A's comb, the tables of 2^(32j)·A for
// j = 1…7, about 60 KB in all. It is safe for concurrent use.
type PublicKey struct {
	enc      [32]byte
	once     sync.Once
	table    *nafLookupTable8 // odd multiples of A; nil if enc is not a point
	combOnce sync.Once
	comb     *combTable // for Verify; comb[0] is table
}

// NewPublicKey wraps the 32-byte encoding of an Ed25519 public key.
func NewPublicKey(pub []byte) (*PublicKey, error) {
	if len(pub) != 32 {
		return nil, errors.New("edwards25519: public key is not 32 bytes")
	}
	k := &PublicKey{}
	copy(k.enc[:], pub)
	return k, nil
}

// prepared returns the key's table, building it on first use, and false if
// the key is not a point.
func (k *PublicKey) prepared() (*nafLookupTable8, bool) {
	k.once.Do(func() {
		if p, err := new(Point).SetBytes(k.enc[:]); err == nil {
			k.table = new(nafLookupTable8)
			k.table.FromP3(p)
		}
	})
	return k.table, k.table != nil
}

// preparedComb returns the key's comb, building it on first use from the
// table prepared returns, and false if the key is not a point.
func (k *PublicKey) preparedComb() (*combTable, bool) {
	t, ok := k.prepared()
	if !ok {
		return nil, false
	}
	k.combOnce.Do(func() {
		p, _ := new(Point).SetBytes(k.enc[:])
		k.comb = newComb(p, t)
	})
	return k.comb, true
}

// VerifyBatch reports whether sigs holds len(keys) signatures of msg, the
// i-th under keys[i], each valid by this rule: S is below l, R is a
// canonical point encoding, and the cofactored equation
// [8](R + [k]A − [S]B) = O holds, where k = SHA-512(R ‖ A ‖ msg). All of
// them are checked as one equation,
//
//	[8](Σ zᵢRᵢ + Σ (zᵢkᵢ)Aᵢ − (Σ zᵢSᵢ)B) = O,
//
// with one Straus multi-scalar multiplication, so all terms share one run
// of doublings. The 128-bit weights zᵢ come from SHA-512 over msg and seed;
// a caller passes as seed bytes that fix every signature and key, so the
// weights are known only once the signatures are, and a set breaking the
// rule passes with probability about 2^-128.
//
// Under keys of prime order — every key crypto/ed25519 generates — the rule
// accepts every signature crypto/ed25519.Verify accepts. Beyond those, it
// accepts exactly the signatures whose R differs from a valid one by a point
// of small order, whatever the weights; only the key's owner can make one.
func VerifyBatch(keys []*PublicKey, msg, sigs, seed []byte) bool {
	n := len(keys)
	if n == 0 || len(sigs) != n*signatureSize {
		return false
	}
	z := weights(n, msg, seed)
	var (
		rTables = make([]nafLookupTable5, n)
		rNafs   = make([][256]int8, n)
		aTables = make([]*nafLookupTable8, n)
		aNafs   = make([][256]int8, n)
		sum     = new(big.Int) // Σ zᵢSᵢ
		s, k    = new(big.Int), new(big.Int)
		zi, t   = new(big.Int), new(big.Int) // t is scratch
		h       = sha512.New()
		digest  [sha512.Size]byte
	)
	for i, key := range keys {
		sig := sigs[i*signatureSize : (i+1)*signatureSize]
		table, ok := key.prepared()
		if !ok {
			return false
		}
		aTables[i] = table
		r, ok := decodeCanonical(sig[:32])
		if !ok {
			return false
		}
		if setLE(s, sig[32:]).Cmp(order) >= 0 {
			return false
		}
		h.Reset()
		h.Write(sig[:32])
		h.Write(key.enc[:])
		h.Write(msg)
		setLE(k, h.Sum(digest[:0]))
		setLE(zi, z[i][:])

		rTables[i].FromP3(r)
		rNafs[i] = nonAdjacentForm(&z[i], 5)
		zk := scalarToLE(t.Mod(t.Mul(k, zi), order))
		aNafs[i] = nonAdjacentForm(&zk, 8)
		sum.Add(sum, t.Mul(s, zi))
	}
	minusSum := scalarToLE(sum.Mod(sum.Neg(sum), order))
	bNaf := nonAdjacentForm(&minusSum, 8)
	return cofactoredSumIsIdentity(rTables, rNafs, aTables, aNafs, &bNaf)
}

// weights derives n 128-bit weights, as little-endian 32-byte scalars,
// four to a hash: the weights 4j…4j+3 are SHA-512(SHA-512(len(msg) ‖ msg ‖
// seed) ‖ j) cut into 16-byte pieces.
func weights(n int, msg, seed []byte) [][32]byte {
	h := sha512.New()
	var buf [sha512.Size + 8]byte
	h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(msg))))
	h.Write(msg)
	h.Write(seed)
	h.Sum(buf[:0])
	z := make([][32]byte, n)
	var block [sha512.Size]byte
	for i := range z {
		if i%4 == 0 {
			binary.LittleEndian.PutUint64(buf[sha512.Size:], uint64(i/4))
			block = sha512.Sum512(buf[:])
		}
		copy(z[i][:16], block[i%4*16:])
	}
	return z
}

// decodeCanonical decodes the point b encodes, refusing the two kinds of
// encoding crypto/ed25519 never produces: a y coordinate of p = 2^255 − 19
// or more, and x = 0 with the sign bit set.
func decodeCanonical(b []byte) (*Point, bool) {
	if yAtLeastP(b) {
		return nil, false
	}
	p, err := new(Point).SetBytes(b)
	if err != nil {
		return nil, false
	}
	if b[31]>>7 == 1 && p.x.Equal(new(field.Element)) == 1 {
		return nil, false
	}
	return p, true
}

// yAtLeastP reports whether the y coordinate in b, its low 255 bits
// little-endian, is p = 2^255 − 19 or more.
func yAtLeastP(b []byte) bool {
	if b[31]&0x7f != 0x7f || b[0] < 0xed {
		return false
	}
	for _, c := range b[1:31] {
		if c != 0xff {
			return false
		}
	}
	return true
}

// cofactoredSumIsIdentity reports whether
// [8](Σ rNafs[i]·Rᵢ + Σ aNafs[i]·Aᵢ + bNaf·B) is the identity, where Rᵢ is
// the point rTables[i] holds the odd multiples of, and Aᵢ that of
// aTables[i]. It is a Straus loop: one doubling per bit, shared by every
// term, and one addition per nonzero digit.
func cofactoredSumIsIdentity(rTables []nafLookupTable5, rNafs [][256]int8, aTables []*nafLookupTable8, aNafs [][256]int8, bNaf *[256]int8) bool {
	bTable := basepointNafTable()
	var (
		v    Point
		tmp1 projP1xP1
		tmp2 projP2
	)
	tmp2.Zero()
	for i := 255; i >= 0; i-- {
		tmp1.Double(&tmp2)
		for j := range rNafs {
			addDigit5(&v, &tmp1, &rTables[j], rNafs[j][i])
		}
		for j := range aNafs {
			addDigit8(&v, &tmp1, aTables[j], aNafs[j][i])
		}
		addDigit8(&v, &tmp1, bTable, bNaf[i])
		tmp2.FromP1xP1(&tmp1)
	}
	for range 3 {
		tmp1.Double(&tmp2)
		tmp2.FromP1xP1(&tmp1)
	}
	var zero field.Element
	return tmp2.X.Equal(&zero) == 1 && tmp2.Y.Equal(&tmp2.Z) == 1
}

// addDigit5 adds digit·Q to the accumulator tmp1, Q being the point table
// holds the odd multiples of; v is scratch.
func addDigit5(v *Point, tmp1 *projP1xP1, table *nafLookupTable5, digit int8) {
	switch {
	case digit > 0:
		v.fromP1xP1(tmp1)
		tmp1.Add(v, &table.points[digit/2])
	case digit < 0:
		v.fromP1xP1(tmp1)
		tmp1.Sub(v, &table.points[-digit/2])
	}
}

// addDigit8 is addDigit5 for a width-8 table.
func addDigit8(v *Point, tmp1 *projP1xP1, table *nafLookupTable8, digit int8) {
	switch {
	case digit > 0:
		v.fromP1xP1(tmp1)
		tmp1.AddAffine(v, &table.points[digit/2])
	case digit < 0:
		v.fromP1xP1(tmp1)
		tmp1.SubAffine(v, &table.points[-digit/2])
	}
}
