// Copyright (c) 2016 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"slices"
)

// Scalars are integers modulo the prime order of the group,
//
//	l = 2^252 + 27742317777372353535851937790883648493,
//
// held as math/big values. The wire form is 32 little-endian bytes; the
// challenge hash of a signature is 64.
var order, _ = new(big.Int).SetString("1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed", 16)

// setLE sets x to the little-endian integer b, at most 64 bytes, unreduced,
// and returns x.
func setLE(x *big.Int, b []byte) *big.Int {
	var be [64]byte
	for i, c := range b {
		be[len(b)-1-i] = c
	}
	return x.SetBytes(be[:len(b)])
}

// scalarToLE returns x, which must lie in [0, l), as 32 little-endian bytes.
func scalarToLE(x *big.Int) [32]byte {
	var out [32]byte
	x.FillBytes(out[:])
	slices.Reverse(out[:])
	return out
}

// nonAdjacentForm computes a width-w non-adjacent form for the
// little-endian integer b, which must be below 2^255.
//
// w must be between 2 and 8, or nonAdjacentForm will panic.
func nonAdjacentForm(b *[32]byte, w uint) [256]int8 {
	// This implementation is adapted from the one
	// in curve25519-dalek and is documented there:
	// https://github.com/dalek-cryptography/curve25519-dalek/blob/f630041af28e9a405255f98a8a93adca18e4315b/src/scalar.rs#L800-L871
	if b[31] > 127 {
		panic("scalar has high bit set illegally")
	}
	if w < 2 {
		panic("w must be at least 2 by the definition of NAF")
	} else if w > 8 {
		panic("NAF digits must fit in int8")
	}

	var naf [256]int8
	var digits [5]uint64

	for i := 0; i < 4; i++ {
		digits[i] = binary.LittleEndian.Uint64(b[i*8:])
	}

	width := uint64(1 << w)
	windowMask := uint64(width - 1)

	// No digit lies above the scalar's bit length, so the scan stops there:
	// for a 128-bit half or weight, after half the positions.
	bitLen := uint(0)
	for i := 3; i >= 0 && bitLen == 0; i-- {
		if digits[i] != 0 {
			bitLen = uint(64*i + bits.Len64(digits[i]))
		}
	}

	pos := uint(0)
	carry := uint64(0)
	for pos <= bitLen {
		indexU64 := pos / 64
		indexBit := pos % 64
		var bitBuf uint64
		if indexBit < 64-w {
			// This window's bits are contained in a single u64
			bitBuf = digits[indexU64] >> indexBit
		} else {
			// Combine the current 64 bits with bits from the next 64
			bitBuf = (digits[indexU64] >> indexBit) | (digits[1+indexU64] << (64 - indexBit))
		}

		// Add carry into the current window
		window := carry + (bitBuf & windowMask)

		if window&1 == 0 {
			// If the window value is even, preserve the carry and continue.
			// Why is the carry preserved?
			// If carry == 0 and window & 1 == 0,
			//    then the next carry should be 0
			// If carry == 1 and window & 1 == 0,
			//    then bit_buf & 1 == 1 so the next carry should be 1
			pos += 1
			continue
		}

		if window < width/2 {
			carry = 0
			naf[pos] = int8(window)
		} else {
			carry = 1
			naf[pos] = int8(window) - int8(width)
		}

		pos += w
	}
	return naf
}
