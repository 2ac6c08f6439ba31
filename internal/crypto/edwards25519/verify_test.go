package edwards25519

import (
	"crypto/ed25519"
	"crypto/sha512"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"leopard/internal/crypto/edwards25519/field"
)

// mult returns [x]p by double-and-add over Point.Add: slow, and independent
// of the tables and NAFs Verify uses.
func mult(x *big.Int, p *Point) *Point {
	q, _ := new(Point).SetBytes(identityEnc())
	for i := x.BitLen() - 1; i >= 0; i-- {
		q.Add(q, q)
		if x.Bit(i) == 1 {
			q.Add(q, p)
		}
	}
	return q
}

// encoding returns p's encoding in a new slice.
func (p *Point) encoding() []byte {
	var b [32]byte
	return p.bytes(&b)
}

func identityEnc() []byte { return append([]byte{1}, make([]byte, 31)...) }

// torsion returns the eight points of small order, T·0 … T·7, for a point T
// of order 8: [l]P for the first P of y = 2, 3, … whose [l]P has order 8.
func torsion(t testing.TB) [8]*Point {
	for y := byte(2); y != 0; y++ {
		p, err := new(Point).SetBytes(append([]byte{y}, make([]byte, 31)...))
		if err != nil {
			continue
		}
		g := mult(order, p)
		if four := mult(big.NewInt(4), g); string(four.encoding()) == string(identityEnc()) {
			continue
		}
		var pts [8]*Point
		for i := range pts {
			pts[i] = mult(big.NewInt(int64(i)), g)
		}
		return pts
	}
	t.Fatal("no point of order 8 found")
	return [8]*Point{}
}

// secretScalar returns a, the scalar crypto/ed25519 derives from seed, with
// A = [a]B.
func secretScalar(seed []byte) *big.Int {
	h := sha512.Sum512(seed)
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	return setLE(new(big.Int), h[:32])
}

// signWith signs msg under the key whose encoding is pub and whose discrete
// log to B is a: R = [r]B, S = r + k·a, with the nonce r from msg. For a
// key with a small-order component pub is not [a]B, and the signature
// verifies by the cofactorless rule only when that component vanishes
// under [k].
func signWith(a *big.Int, pub, msg []byte) []byte {
	nonce := sha512.Sum512(msg)
	r := setLE(new(big.Int), nonce[:])
	r.Mod(r, order)
	enc := mult(r, generator).encoding()
	h := sha512.New()
	h.Write(enc)
	h.Write(pub)
	h.Write(msg)
	k := setLE(new(big.Int), h.Sum(nil))
	s := new(big.Int).Mul(k, a)
	s.Add(s, r).Mod(s, order)
	sb := scalarToLE(s)
	return cat(enc, sb[:])
}

// cat returns a new slice holding a and then b.
func cat(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }

type verifyCase struct {
	name     string
	pub, msg []byte
	sig      []byte
}

// search returns the first of msg‖0, msg‖1, … for which sign's signature
// gets crypto/ed25519's verdict want, with that signature.
func search(t testing.TB, pub, msg []byte, want bool, sign func(msg []byte) []byte) ([]byte, []byte) {
	t.Helper()
	for i := 0; i < 256; i++ {
		m := append(append([]byte(nil), msg...), byte(i))
		sig := sign(m)
		if ed25519.Verify(pub, m, sig) == want {
			return m, sig
		}
	}
	t.Fatalf("%s: no message gives verdict %v", msg, want)
	return nil, nil
}

// edgeCases are signatures around every clause of crypto/ed25519's rule.
// Each name says what the case is; the verdict is whatever crypto/ed25519
// says, and some of them are acceptances.
func edgeCases(t testing.TB) []verifyCase {
	seed := make([]byte, ed25519.SeedSize)
	seed[0] = 7
	priv := ed25519.NewKeyFromSeed(seed)
	pub := []byte(priv.Public().(ed25519.PublicKey))
	msg := []byte("a request digest")
	sig := ed25519.Sign(priv, msg)
	with := func(f func(s []byte)) []byte {
		s := append([]byte(nil), sig...)
		f(s)
		return s
	}
	cases := []verifyCase{
		{"valid", pub, msg, sig},
		{"flipped message bit", pub, []byte("a request digesu"), sig},
		{"flipped R bit", pub, msg, with(func(s []byte) { s[3] ^= 4 })},
		{"flipped S bit", pub, msg, with(func(s []byte) { s[40] ^= 1 })},
		{"63 bytes", pub, msg, sig[:63]},
		{"65 bytes", pub, msg, cat(sig, []byte{0})},
		{"empty", pub, msg, nil},
		{"S + l", pub, msg, with(func(s []byte) {
			sl := scalarToLE(new(big.Int).Add(setLE(new(big.Int), s[32:]), order))
			copy(s[32:], sl[:])
		})},
		{"S = l", pub, msg, with(func(s []byte) {
			l := scalarToLE(order)
			copy(s[32:], l[:])
		})},
	}
	for bit := 5; bit < 8; bit++ {
		cases = append(cases, verifyCase{fmt.Sprintf("sig[63] bit %d set", bit), pub, msg,
			with(func(s []byte) { s[63] |= 1 << bit })})
	}

	// Under the identity as key, (R, S) = (O, 0) verifies for every message.
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	enc := func(y *big.Int, sign byte) []byte {
		b := scalarToLE(y)
		b[31] |= sign << 7
		return b[:]
	}
	zero := make([]byte, 32)
	id := identityEnc()
	idSigned := enc(big.NewInt(1), 1)
	idAboveP := enc(new(big.Int).Add(p, big.NewInt(1)), 0)
	cases = append(cases,
		verifyCase{"identity key, R = O, S = 0", id, msg, cat(id, zero)},
		verifyCase{"identity key with the sign bit set", idSigned, msg, cat(id, zero)},
		verifyCase{"identity key as y = p+1", idAboveP, msg, cat(id, zero)},
		verifyCase{"R = O as y = p+1", id, msg, cat(idAboveP, zero)},
		verifyCase{"R = O with the sign bit set", id, msg, cat(idSigned, zero)},
		verifyCase{"R = (0, -1) as y = p-1, sign bit set", id, msg, cat(enc(new(big.Int).Sub(p, big.NewInt(1)), 1), zero)},
		verifyCase{"R with y = p", id, msg, cat(enc(p, 0), zero)},
		verifyCase{"key not a point (y = 2)", append([]byte{2}, make([]byte, 31)...), msg, sig},
		verifyCase{"key with y = p", enc(p, 0), msg, sig},
	)

	// Non-canonical encodings of keys of order 2 and 4: (O, 0) verifies
	// when [k]A = O, and k hashes the key's bytes as given.
	for _, key := range [][]byte{enc(new(big.Int).Sub(p, big.NewInt(1)), 1), enc(p, 0), enc(p, 1)} {
		for _, want := range []bool{true, false} {
			m, s := search(t, key, []byte("non-canonical key"), want, func([]byte) []byte { return cat(id, zero) })
			cases = append(cases, verifyCase{fmt.Sprintf("non-canonical key %x, verdict %v", key[31], want), key, m, s})
		}
	}

	// Small-order keys and R: under a key T of small order, (R, 0) verifies
	// exactly when R = −[k]T. Each key gets one accepted message for R = O
	// and one for R = T.
	small := torsion(t)
	for i, T := range small[1:] {
		key := T.encoding()
		for j, R := range small {
			r := R.encoding()
			if j == 0 || j == i+1 {
				m, s := search(t, key, []byte(fmt.Sprintf("small %d/%d", i, j)), true, func(m []byte) []byte {
					return cat(r, zero)
				})
				cases = append(cases, verifyCase{fmt.Sprintf("small-order key %d, small-order R %d, accepted", i+1, j), key, m, s})
			}
			cases = append(cases, verifyCase{fmt.Sprintf("small-order key %d, small-order R %d", i+1, j), key, msg, cat(r, zero)})
		}
	}
	// A valid signature with a small-order point added to R.
	rPoint, _ := new(Point).SetBytes(sig[:32])
	cases = append(cases, verifyCase{"valid R plus a point of order 8", pub, msg,
		cat(new(Point).Add(rPoint, small[1]).encoding(), sig[32:])})

	// Mixed-order keys: A + T, signed with A's secret. The cofactorless rule
	// accepts exactly when [k]T = O.
	a := secretScalar(seed)
	A := mult(a, generator)
	if string(A.encoding()) != string(pub) {
		t.Fatal("secretScalar does not match crypto/ed25519's key")
	}
	for i, T := range []*Point{small[1], small[2], small[4]} {
		mixed := new(Point).Add(A, T).encoding()
		sign := func(m []byte) []byte { return signWith(a, mixed, m) }
		for _, want := range []bool{true, false} {
			m, s := search(t, mixed, []byte(fmt.Sprintf("mixed %d", i)), want, sign)
			cases = append(cases, verifyCase{fmt.Sprintf("mixed-order key %d (order %d part), verdict %v", i, []int{8, 4, 2}[i], want), mixed, m, s})
		}
	}
	return cases
}

// TestVerifyMatchesStdlib: on every edge case Verify gives crypto/ed25519's
// verdict, and the table holds acceptances as well as refusals.
func TestVerifyMatchesStdlib(t *testing.T) {
	accepted := 0
	for _, c := range edgeCases(t) {
		key, err := NewPublicKey(c.pub)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := ed25519.Verify(c.pub, c.msg, c.sig)
		if got := Verify(key, c.msg, c.sig); got != want {
			t.Errorf("%s: Verify = %v, crypto/ed25519 says %v", c.name, got, want)
		}
		if want {
			accepted++
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d edge cases are acceptances", accepted)
	}
}

// TestVerifyRandom: honest signatures on random keys and messages, and each
// with one bit flipped somewhere, get crypto/ed25519's verdict.
func TestVerifyRandom(t *testing.T) {
	for i := 0; i < 100; i++ {
		seed := sha512.Sum512([]byte{byte(i), byte(i >> 8)})
		priv := ed25519.NewKeyFromSeed(seed[:32])
		pub := priv.Public().(ed25519.PublicKey)
		msg := seed[32 : 32+i%32]
		sig := ed25519.Sign(priv, msg)
		key, _ := NewPublicKey(pub)
		if !Verify(key, msg, sig) {
			t.Fatalf("%d: valid signature refused", i)
		}
		bad := append([]byte(nil), sig...)
		bad[int(seed[0])%64] ^= 1 << (seed[1] % 8)
		if got, want := Verify(key, msg, bad), ed25519.Verify(pub, msg, bad); got != want {
			t.Fatalf("%d: flipped signature: Verify = %v, crypto/ed25519 says %v", i, got, want)
		}
	}
}

// combScalars are combFold's test scalars: the ends of the range, values at
// and around piece boundaries, values whose NAF carries from one piece into
// the next, and random ones.
func combScalars() []*big.Int {
	one := big.NewInt(1)
	pow := func(e uint) *big.Int { return new(big.Int).Lsh(one, e) }
	xs := []*big.Int{
		big.NewInt(0), one,
		new(big.Int).Sub(pow(32), one), pow(32), pow(31), pow(224),
		new(big.Int).Sub(order, one),
	}
	for j := uint(1); j < combPieces; j++ {
		// 2^32j − 1 has the digits −1 at 0 and +1 at 32j; 255·2^(32j−8)
		// has −1 at 32j − 8 and +1 at 32j.
		xs = append(xs, new(big.Int).Sub(pow(32*j), one), new(big.Int).Lsh(big.NewInt(255), 32*j-8))
	}
	rng := rand.New(rand.NewSource(3))
	for range 16 {
		xs = append(xs, new(big.Int).Rand(rng, order))
	}
	return xs
}

// TestCombFold: for every pair of test scalars, combFold gives [s]B − [k]A,
// checked as combFold(s, k) + [k]A = [s]B with double-and-add on the right.
func TestCombFold(t *testing.T) {
	keys, _ := signers(t, 1, nil)
	aComb, ok := keys[0].preparedComb()
	if !ok {
		t.Fatal("key does not decode")
	}
	a, _ := new(Point).SetBytes(keys[0].enc[:])
	xs := combScalars()
	sB, kA := make([]*Point, len(xs)), make([]*Point, len(xs))
	for i, x := range xs {
		sB[i], kA[i] = mult(x, generator), mult(x, a)
	}
	for i, s := range xs {
		for j, k := range xs {
			sb, kb := scalarToLE(s), scalarToLE(k)
			var v Point
			combFold(&v, basepointComb(), aComb, &sb, &kb)
			if got := v.Add(&v, kA[j]).encoding(); string(got) != string(sB[i].encoding()) {
				t.Fatalf("s = %#x, k = %#x: combFold is not [s]B − [k]A", s, k)
			}
		}
	}
}

// TestCombTables: for B and for a key's A, entry i of comb table j is
// (2i+1)·2^(32j)·P, checked against double-and-add and an inversion per
// entry; table 0 is the one VerifyBatch uses.
func TestCombTables(t *testing.T) {
	keys, _ := signers(t, 1, nil)
	aComb, ok := keys[0].preparedComb()
	if !ok {
		t.Fatal("key does not decode")
	}
	if table, _ := keys[0].prepared(); aComb[0] != table {
		t.Fatal("the key's comb does not start at its VerifyBatch table")
	}
	if basepointComb()[0] != basepointNafTable() {
		t.Fatal("the basepoint comb does not start at basepointNafTable")
	}
	a, _ := new(Point).SetBytes(keys[0].enc[:])
	for _, c := range []struct {
		name string
		p    *Point
		comb *combTable
	}{{"B", generator, basepointComb()}, {"A", a, aComb}} {
		for j, table := range c.comb {
			for i, got := range table.points {
				m := new(big.Int).Lsh(big.NewInt(int64(2*i+1)), uint(combPieceBits*j))
				multiple := mult(m, c.p)
				var invZ field.Element
				var want affineCached
				want.fromP3(multiple, invZ.Invert(&multiple.z))
				if got.YplusX.Equal(&want.YplusX) != 1 || got.YminusX.Equal(&want.YminusX) != 1 || got.T2d.Equal(&want.T2d) != 1 {
					t.Fatalf("%s: table %d, entry %d is not %d·2^%d·%s", c.name, j, i, 2*i+1, combPieceBits*j, c.name)
				}
			}
		}
	}
}

// FuzzVerify: Verify gives crypto/ed25519.Verify's verdict on any key,
// message and signature.
func FuzzVerify(f *testing.F) {
	for _, c := range edgeCases(f) {
		f.Add(c.pub, c.msg, c.sig)
	}
	f.Fuzz(func(t *testing.T, pub, msg, sig []byte) {
		if len(pub) != ed25519.PublicKeySize {
			return
		}
		key, err := NewPublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Verify(key, msg, sig), ed25519.Verify(pub, msg, sig); got != want {
			t.Fatalf("Verify = %v, crypto/ed25519 says %v", got, want)
		}
	})
}
