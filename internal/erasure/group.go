package erasure

import "encoding/binary"

// Grouped row generation: the one kernel behind Encode and Decode.
//
// Computing rows = M × shards one coefficient at a time costs one table
// lookup per (row, byte) product and tops out near 2 GB/s of product work
// in scalar Go. Grouping 8 output rows lets one [256]uint64 table per
// source column carry all 8 products of a source byte in one load: the
// inner loop is then load byte → load word → xor, producing 8 row-bytes
// per lookup. The group accumulates into a row-interleaved buffer (byte
// lane r of word t = row r at offset t) that an 8×8 byte transpose
// scatters back into contiguous row shards.
//
// Compiling a program costs ~k×rows×256 table writes. The parity program
// is compiled once per codec and decode programs are cached with their
// inverse, so every shard size, down to one byte, runs the same program.

// groupBlock is the number of byte offsets accumulated per work unit: a
// 16 KiB interleave buffer that stays L1-resident while k source blocks
// stream through it.
const groupBlock = 2048

// rowProg is a compiled program computing `rows` output shards as a
// coefficient matrix times k source shards, in groups of up to 8 rows.
// Programs are immutable once compiled and safe for concurrent use.
type rowProg struct {
	k      int
	rows   int
	groups []groupTables
}

// groupTables holds the packed multiplication tables for one group of up
// to 8 consecutive output rows: tables[j][s] has c(row g·8+r, j)·s in byte
// lane r.
type groupTables struct {
	lanes  int
	tables [][256]uint64
}

// compileRowProg packs the coefficient rows into grouped tables. coefRows
// must each have k entries. The per-coefficient byte tables are shared via
// c.table, so repeated compiles reuse them.
func (c *Codec) compileRowProg(coefRows [][]byte) *rowProg {
	rows := len(coefRows)
	p := &rowProg{k: c.k, rows: rows}
	for g := 0; g*8 < rows; g++ {
		lanes := rows - g*8
		if lanes > 8 {
			lanes = 8
		}
		gt := groupTables{lanes: lanes, tables: make([][256]uint64, c.k)}
		for j := 0; j < c.k; j++ {
			tbl := &gt.tables[j]
			for r := 0; r < lanes; r++ {
				cf := coefRows[g*8+r][j]
				if cf == 0 {
					continue
				}
				mt := c.table(cf)
				sh := uint(8 * r)
				for s := 1; s < fieldSize; s++ {
					tbl[s] |= uint64(mt[s]) << sh
				}
			}
		}
		p.groups = append(p.groups, gt)
	}
	return p
}

// run computes the program's output rows over srcs (each at least size
// bytes) into outs (p.rows shards of size bytes, fully overwritten).
// (group, offset-block) pairs are independent work units, fanned out
// across the codec's worker pool for large shards.
func (c *Codec) runProg(p *rowProg, srcs, outs [][]byte, size int) {
	nBlocks := (size + groupBlock - 1) / groupBlock
	units := len(p.groups) * nBlocks
	c.forRows(units, size, func(u int) {
		g := u / nBlocks
		t0 := (u % nBlocks) * groupBlock
		t1 := t0 + groupBlock
		if t1 > size {
			t1 = size
		}
		p.groups[g].run(srcs, outs[g*8:], t0, t1)
	})
}

// run accumulates this group's interleaved products over [t0, t1) and
// scatters them into the first `lanes` shards of outs.
func (gt *groupTables) run(srcs, outs [][]byte, t0, t1 int) {
	var inter [groupBlock]uint64
	n := t1 - t0
	acc := inter[:n]
	for j, src := range srcs {
		tbl := &gt.tables[j]
		for t, s := range src[t0:t1] {
			acc[t] ^= tbl[s]
		}
	}
	lanes := gt.lanes
	m := 0
	for ; m+8 <= n; m += 8 {
		w := (*[8]uint64)(acc[m : m+8]) // acc is scratch: transpose in place
		transpose8x8(w)
		for r := 0; r < lanes; r++ {
			binary.LittleEndian.PutUint64(outs[r][t0+m:], w[r])
		}
	}
	for ; m < n; m++ {
		w := acc[m]
		for r := 0; r < lanes; r++ {
			outs[r][t0+m] = byte(w >> (8 * uint(r)))
		}
	}
}

// transpose8x8 transposes an 8×8 byte matrix held in 8 uint64 words (byte
// lane r of w[t] is element (t, r)) by recursive block swaps: 4×4 blocks,
// then 2×2, then single bytes. It is written out on locals so the eight
// words stay in registers.
func transpose8x8(w *[8]uint64) {
	const (
		m4 = 0x00000000FFFFFFFF
		m2 = 0x0000FFFF0000FFFF
		m1 = 0x00FF00FF00FF00FF
	)
	w0, w1, w2, w3, w4, w5, w6, w7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
	t := ((w0 >> 32) ^ w4) & m4
	w0, w4 = w0^t<<32, w4^t
	t = ((w1 >> 32) ^ w5) & m4
	w1, w5 = w1^t<<32, w5^t
	t = ((w2 >> 32) ^ w6) & m4
	w2, w6 = w2^t<<32, w6^t
	t = ((w3 >> 32) ^ w7) & m4
	w3, w7 = w3^t<<32, w7^t

	t = ((w0 >> 16) ^ w2) & m2
	w0, w2 = w0^t<<16, w2^t
	t = ((w1 >> 16) ^ w3) & m2
	w1, w3 = w1^t<<16, w3^t
	t = ((w4 >> 16) ^ w6) & m2
	w4, w6 = w4^t<<16, w6^t
	t = ((w5 >> 16) ^ w7) & m2
	w5, w7 = w5^t<<16, w7^t

	t = ((w0 >> 8) ^ w1) & m1
	w0, w1 = w0^t<<8, w1^t
	t = ((w2 >> 8) ^ w3) & m1
	w2, w3 = w2^t<<8, w3^t
	t = ((w4 >> 8) ^ w5) & m1
	w4, w5 = w4^t<<8, w5^t
	t = ((w6 >> 8) ^ w7) & m1
	w6, w7 = w6^t<<8, w7^t
	*w = [8]uint64{w0, w1, w2, w3, w4, w5, w6, w7}
}

// encodeProg returns the compiled parity program (rows k..n of the encode
// matrix), building it once on first use.
func (c *Codec) encodeProg() *rowProg {
	c.encodeOnce.Do(func() {
		rows := make([][]byte, 0, c.n-c.k)
		for i := c.k; i < c.n; i++ {
			rows = append(rows, c.encode.row(i))
		}
		c.parityProg = c.compileRowProg(rows)
	})
	return c.parityProg
}
