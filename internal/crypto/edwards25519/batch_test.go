package edwards25519

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"leopard/internal/crypto/edwards25519/field"
)

// signers returns n fresh keys and their signatures of msg, concatenated.
func signers(t testing.TB, n int, msg []byte) ([]*PublicKey, []byte) {
	t.Helper()
	keys := make([]*PublicKey, n)
	var sigs []byte
	for i := range keys {
		seed := make([]byte, ed25519.SeedSize)
		seed[0] = byte(i)
		priv := ed25519.NewKeyFromSeed(seed)
		k, err := NewPublicKey(priv.Public().(ed25519.PublicKey))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		sigs = append(sigs, ed25519.Sign(priv, msg)...)
	}
	return keys, sigs
}

func TestOrder(t *testing.T) {
	want, _ := new(big.Int).SetString("27742317777372353535851937790883648493", 10)
	want.Add(want, new(big.Int).Lsh(big.NewInt(1), 252))
	if order.Cmp(want) != 0 {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestNonAdjacentForm: the digits sum back to the scalar, each is odd and
// below 2^(w-1) in magnitude, and any two nonzero ones are w apart.
func TestNonAdjacentForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	half := new(big.Int).Lsh(big.NewInt(1), 128)
	for trial := 0; trial < 300; trial++ {
		// Full scalars, and 128-bit ones as VerifyBatch's weights are,
		// the extremes among them.
		var x *big.Int
		switch {
		case trial < 200:
			x = new(big.Int).Rand(rng, order)
		case trial < 204:
			x = big.NewInt(int64(trial - 200))
		case trial == 204:
			x = new(big.Int).Sub(half, big.NewInt(1))
		case trial == 205:
			x = new(big.Int).Sub(order, big.NewInt(1))
		default:
			x = new(big.Int).Rand(rng, half)
		}
		b := scalarToLE(x)
		if got := setLE(new(big.Int), b[:]); got.Cmp(x) != 0 {
			t.Fatalf("%v round-trips to %v", x, got)
		}
		for _, w := range []uint{5, 8} {
			naf := nonAdjacentForm(&b, w)
			sum, last := new(big.Int), -int(w)
			for i := 255; i >= 0; i-- {
				sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(naf[i])))
			}
			for i, d := range naf {
				if d == 0 {
					continue
				}
				if d%2 == 0 || int(d) >= 1<<(w-1) || int(d) <= -1<<(w-1) || i-last < int(w) {
					t.Fatalf("w=%d: digit %d at %d (previous nonzero at %d)", w, d, i, last)
				}
				last = i
			}
			if sum.Cmp(x) != 0 {
				t.Fatalf("w=%d: digits of %v sum to %v", w, x, sum)
			}
		}
	}
}

// TestNafLookupTable8: entry i is (2i+1)·Q in affine form, checked
// against an inversion per entry.
func TestNafLookupTable8(t *testing.T) {
	_, sigs := signers(t, 1, []byte("a point"))
	q, ok := decodeCanonical(sigs[:32])
	if !ok {
		t.Fatal("R does not decode")
	}
	for _, p := range []*Point{generator, q} {
		var table nafLookupTable8
		table.FromP3(p)
		twice := new(Point).Add(p, p)
		multiple := *p
		for i, got := range table.points {
			var invZ field.Element
			var want affineCached
			want.fromP3(&multiple, invZ.Invert(&multiple.z))
			if got.YplusX.Equal(&want.YplusX) != 1 || got.YminusX.Equal(&want.YminusX) != 1 || got.T2d.Equal(&want.T2d) != 1 {
				t.Fatalf("entry %d is not %d·Q", i, 2*i+1)
			}
			multiple.Add(&multiple, twice)
		}
	}
}

// TestDecodeCanonical: of the encodings SetBytes accepts, the ones
// crypto/ed25519 never produces are refused: y ≥ p, and x = 0 under a set
// sign bit.
func TestDecodeCanonical(t *testing.T) {
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	enc := func(y *big.Int, sign byte) []byte {
		b := scalarToLE(y)
		b[31] |= sign << 7
		return b[:]
	}
	for _, c := range []struct {
		name string
		enc  []byte
		want bool
	}{
		{"identity", enc(big.NewInt(1), 0), true},
		{"identity, sign bit set", enc(big.NewInt(1), 1), false},
		{"identity as y = p+1", enc(new(big.Int).Add(p, big.NewInt(1)), 0), false},
		{"(0, -1)", enc(new(big.Int).Sub(p, big.NewInt(1)), 0), true},
		{"(0, -1), sign bit set", enc(new(big.Int).Sub(p, big.NewInt(1)), 1), false},
		{"y = 0", enc(big.NewInt(0), 0), true},
		{"y = 0 as y = p", enc(p, 0), false},
		{"basepoint", generatorBytes(), true},
	} {
		if _, err := new(Point).SetBytes(c.enc); err != nil {
			t.Fatalf("%s: SetBytes refuses it, so the case tests nothing", c.name)
		}
		if _, ok := decodeCanonical(c.enc); ok != c.want {
			t.Errorf("%s: decodeCanonical = %v, want %v", c.name, ok, c.want)
		}
	}
}

func generatorBytes() []byte {
	b := make([]byte, 32)
	b[0] = 0x58
	for i := 1; i < 32; i++ {
		b[i] = 0x66
	}
	return b
}

func TestVerifyBatch(t *testing.T) {
	msg := []byte("one digest")
	for _, n := range []int{1, 3, 11} {
		keys, sigs := signers(t, n, msg)
		if !VerifyBatch(keys, msg, sigs, nil) {
			t.Fatalf("n=%d: valid signatures refused", n)
		}
		for i := 0; i < len(sigs); i += 13 {
			bad := append([]byte(nil), sigs...)
			bad[i] ^= 1
			if VerifyBatch(keys, msg, bad, nil) {
				t.Fatalf("n=%d: byte %d flipped, accepted", n, i)
			}
		}
		if VerifyBatch(keys, []byte("another digest"), sigs, nil) {
			t.Fatalf("n=%d: accepted for another message", n)
		}
		if VerifyBatch(keys, msg, sigs[:len(sigs)-1], nil) || VerifyBatch(keys[:n-1], msg, sigs, nil) {
			t.Fatalf("n=%d: keys and signatures of different counts accepted", n)
		}
	}
	if VerifyBatch(nil, msg, nil, nil) {
		t.Fatal("an empty batch accepted")
	}
	// y = 2 is not on the curve.
	notAPoint, _ := NewPublicKey(append([]byte{2}, make([]byte, 31)...))
	if _, ok := notAPoint.prepared(); ok {
		t.Fatal("y = 2 decodes, so the case tests nothing")
	}
	keys, sigs := signers(t, 2, msg)
	if VerifyBatch([]*PublicKey{keys[0], notAPoint}, msg, sigs, nil) {
		t.Fatal("a key that is not a point accepted")
	}
	if _, err := NewPublicKey(make([]byte, 31)); err == nil {
		t.Fatal("a 31-byte key accepted")
	}
}

// TestVerifyBatchConcurrent: goroutines sharing keys whose tables are not
// built yet all get the right answer (run it with -race).
func TestVerifyBatchConcurrent(t *testing.T) {
	msg := []byte("shared keys")
	keys, sigs := signers(t, 4, msg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !VerifyBatch(keys, msg, sigs, []byte(fmt.Sprint(g))) {
				t.Error("valid signatures refused")
			}
		}()
	}
	wg.Wait()
}

// BenchmarkNafLookupTable8: what a key costs on its first use.
func BenchmarkNafLookupTable8(b *testing.B) {
	var table nafLookupTable8
	for b.Loop() {
		table.FromP3(generator)
	}
}
