// Package erasure implements systematic (k, n) Reed–Solomon erasure coding
// over GF(2^8), from scratch on the standard library.
//
// Leopard's datablock-retrieval mechanism (Alg. 3) encodes a missing
// datablock with an (f+1, n) code so that any f+1 valid chunks reconstruct
// it, amortizing the response cost across a committee of replicas.
package erasure

// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b).
// Multiplication uses log/exp tables built once at package init from the
// generator 3; this is deterministic precomputation, the sanctioned use of
// init-time work.
//
// buildMulTable's 256-byte per-coefficient tables (cached lazily by the
// Codec) are the raw material of the grouped row programs in group.go,
// which every Encode and Decode runs.

const fieldSize = 256

var (
	expTable [2 * fieldSize]byte
	logTable [fieldSize]byte
)

func init() {
	x := byte(1)
	for i := 0; i < fieldSize-1; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by the generator 3 = x + 1:
		x = xtimes(x) ^ x
	}
	// Duplicate so exp lookups never need a mod.
	for i := fieldSize - 1; i < 2*fieldSize; i++ {
		expTable[i] = expTable[i-(fieldSize-1)]
	}
}

// xtimes multiplies by x (i.e. 2) modulo the field polynomial.
func xtimes(a byte) byte {
	if a&0x80 != 0 {
		return (a << 1) ^ 0x1b
	}
	return a << 1
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// gfDiv divides a by b. Division by zero panics: it indicates a programming
// error in matrix inversion, which guards against singular pivots.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += fieldSize - 1
	}
	return expTable[d]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExp returns base**power in the field.
func gfExp(base byte, power int) byte {
	if power == 0 {
		return 1
	}
	if base == 0 {
		return 0
	}
	l := (int(logTable[base]) * power) % (fieldSize - 1)
	if l < 0 {
		l += fieldSize - 1
	}
	return expTable[l]
}

// buildMulTable returns the 256-entry multiplication table for coefficient c:
// tbl[x] = c*x in GF(2^8).
func buildMulTable(c byte) *[256]byte {
	var tbl [256]byte
	if c == 0 {
		return &tbl
	}
	logC := int(logTable[c])
	for x := 1; x < 256; x++ {
		tbl[x] = expTable[logC+int(logTable[x])]
	}
	return &tbl
}

// mulSliceAdd computes dst[i] ^= c*src[i] via log/exp lookups. It serves
// the cold paths (matrix inversion) and the tests' naive reference; bulk
// shard math goes through the grouped row programs of group.go.
func mulSliceAdd(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	logC := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+int(logTable[s])]
		}
	}
}
