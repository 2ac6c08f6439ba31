// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"sync"

	"leopard/internal/crypto/edwards25519/field"
)

// A dynamic lookup table for variable-base, variable-time scalar muls:
// points[i] = (2i+1)·Q, the odd multiples a width-5 NAF digit names.
type nafLookupTable5 struct {
	points [8]projCached
}

// A precomputed lookup table for fixed-base, variable-time scalar muls:
// points[i] = (2i+1)·Q, the odd multiples a width-8 NAF digit names.
type nafLookupTable8 struct {
	points [64]affineCached
}

// Constructors.

// Builds a lookup table at runtime. Fast.
func (v *nafLookupTable5) FromP3(q *Point) {
	// Goal: v.points[i] = (2*i+1)*Q, i.e., Q, 3Q, 5Q, ..., 15Q
	// This allows lookup of -15Q, ..., -3Q, -Q, 0, Q, 3Q, ..., 15Q
	v.points[0].FromP3(q)
	q2 := Point{}
	q2.Add(q, q)
	tmpP3 := Point{}
	tmpP1xP1 := projP1xP1{}
	for i := 0; i < 7; i++ {
		v.points[i+1].FromP3(tmpP3.fromP1xP1(tmpP1xP1.Add(&q2, &v.points[i])))
	}
}

// FromP3 fills v with Q, 3Q, …, 127Q. The multiples are summed in extended
// coordinates and brought to affine ones with a single inversion shared by
// all 64 (Montgomery's trick), which makes a table about a tenth of what
// an inversion per entry costs.
func (v *nafLookupTable8) FromP3(q *Point) {
	var multiples [64]Point
	multiples[0] = *q
	q2 := new(projCached).FromP3(new(Point).Add(q, q))
	var tmp projP1xP1
	for i := 1; i < 64; i++ {
		multiples[i].fromP1xP1(tmp.Add(&multiples[i-1], q2))
	}
	// invZ[i] = z0·…·z(i−1) on the way up; acc = 1/(z0·…·zi) on the way
	// down turns it into 1/zi.
	var invZ [64]field.Element
	var acc field.Element
	acc.One()
	for i := range multiples {
		invZ[i] = acc
		acc.Multiply(&acc, &multiples[i].z)
	}
	acc.Invert(&acc)
	for i := 63; i >= 0; i-- {
		invZ[i].Multiply(&invZ[i], &acc)
		acc.Multiply(&acc, &multiples[i].z)
		v.points[i].fromP3(&multiples[i], &invZ[i])
	}
}

// basepointNafTable is the nafLookupTable8 for the basepoint.
// It is precomputed the first time it's used.
func basepointNafTable() *nafLookupTable8 {
	basepointNafTablePrecomp.initOnce.Do(func() {
		basepointNafTablePrecomp.table.FromP3(generator)
	})
	return &basepointNafTablePrecomp.table
}

var basepointNafTablePrecomp struct {
	table    nafLookupTable8
	initOnce sync.Once
}

// combPieces is how many pieces Verify cuts a scalar into, and
// combPieceBits how wide each one is. Eight pieces of 32 bits cover the 256
// positions a width-8 NAF has, so a Straus loop over them does 32
// doublings; 4 pieces would do 64, and 16 would double the memory for a
// few per cent more.
const (
	combPieces    = 8
	combPieceBits = 32
)

// A combTable holds, for a point P, the nafLookupTable8 of 2^(32j)·P in
// entry j: the fixed-base comb of Lim and Lee, one table per piece. A NAF
// digit at position p is then added from entry p/32 at row p mod 32 (see
// combFold).
type combTable [combPieces]*nafLookupTable8

// newComb returns p's comb, whose entry 0, the table of p itself, is t0.
// The other seven tables are built here, in one allocation.
func newComb(p *Point, t0 *nafLookupTable8) *combTable {
	c := &combTable{t0}
	tables := new([combPieces - 1]nafLookupTable8)
	tmp2 := projP2{X: p.x, Y: p.y, Z: p.z}
	var (
		tmp1 projP1xP1
		q    Point
	)
	for j := 1; j < combPieces; j++ {
		for range combPieceBits {
			tmp2.FromP1xP1(tmp1.Double(&tmp2))
		}
		tables[j-1].FromP3(q.fromP1xP1(&tmp1))
		c[j] = &tables[j-1]
	}
	return c
}

// basepointComb is the combTable for the basepoint, whose entry 0 is
// basepointNafTable. It is precomputed the first time it's used.
func basepointComb() *combTable {
	basepointCombPrecomp.initOnce.Do(func() {
		basepointCombPrecomp.comb = newComb(generator, basepointNafTable())
	})
	return basepointCombPrecomp.comb
}

var basepointCombPrecomp struct {
	comb     *combTable
	initOnce sync.Once
}
