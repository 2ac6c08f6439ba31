// Package codec provides the deterministic binary wire encoding used by the
// TCP transport and by Leopard's retrieval mechanism (datablocks are
// serialized before erasure coding so chunks are well-defined byte ranges).
//
// Encoding conventions: big-endian fixed-width integers, length-prefixed
// byte strings (uint32 lengths), no varints — simple, unambiguous, and
// cheap to bound-check.
//
// # One description per layout
//
// A message or record does not have an encoder, a decoder and a size: it
// has one field walk over a Coder (coder.go), which the Writer and the
// Reader below both back and which Size runs to count the encoding's bytes.
// The datablock, BFTblock and request layouts are walks too
// (Coder.Datablock, BFTblock and Request), so the bytes retrieval hashes and
// erasure-codes are the bytes every message embeds.
//
// # Frame ownership and borrow mode
//
// A Reader has two modes for variable-length fields. In the default
// (copying) mode, Bytes allocates and copies each field out of the input
// buffer, so decoded values are independent of it. In borrow mode
// (Reader.Borrow, or BorrowBytes called directly), Bytes returns sub-slices
// of Reader.Buf instead: decoding allocates nothing per field, and
// ownership of the input buffer transfers to the decoded value.
//
// The contract for borrow-mode decoding is:
//
//   - The caller must own the buffer outright: it was freshly allocated for
//     this decode (e.g. one TCP frame per message) and will never be
//     modified or recycled afterwards. Pooled or reused buffers must use
//     the copying mode.
//   - The decoded value and all byte fields reached from it alias the
//     buffer. Retaining any one of them (a mempool'd request payload, a
//     retrieval chunk, a stored proof) keeps the whole buffer alive; that
//     is the intended trade — one backing array per frame instead of one
//     per field. A consumer that wants to retain a small field without
//     pinning a large frame must copy it explicitly.
//   - Borrowed slices are returned with capacity clipped to their length
//     (three-index sub-slices), so appending to one cannot scribble over
//     neighbouring fields.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"leopard/internal/types"
)

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrOversize  = errors.New("codec: length prefix exceeds limit")
	ErrTrailing  = errors.New("codec: trailing bytes after message")
)

// MaxElements bounds decoded collection counts (requests per datablock,
// hashes per block, blocks per view-change) to prevent memory-exhaustion on
// malformed input. It is a count of elements, not a byte length — byte
// strings are bounded by MaxBytesLen.
const MaxElements = 1 << 22

// MaxBytesLen bounds a single length-prefixed byte string. It is sized for
// the largest legal field — a retrieval chunk or request payload inside a
// maximum-size frame — and is the TCP transport's frame cap too, so any
// field that fits in a legal frame decodes.
const MaxBytesLen = 64 << 20

// Writer appends primitives to a byte slice.
type Writer struct {
	Buf []byte
	n   int // Size's tally, while the Writer is lent to it
}

// maxPooledWriter caps the buffer capacity retained by the Writer pool so
// one oversized message does not pin memory forever.
const maxPooledWriter = 4 << 20

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns a pooled Writer with an empty buffer. Hot marshalling
// paths (the leader's per-datablock encode, wire framing) use this to
// avoid a fresh backing array per message; return it with PutWriter once
// the bytes have been copied out or are no longer needed.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Buf = w.Buf[:0]
	return w
}

// PutWriter returns w to the pool. The caller must not retain w or w.Buf
// after the call.
func PutWriter(w *Writer) {
	if cap(w.Buf) > maxPooledWriter {
		w.Buf = nil
	}
	writerPool.Put(w)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.Buf = append(w.Buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.Buf = append(w.Buf, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Bytes appends a uint32 length prefix followed by b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Hash appends a fixed 32-byte hash.
func (w *Writer) Hash(h types.Hash) { w.Buf = append(w.Buf, h[:]...) }

// Reader consumes primitives from a byte slice.
type Reader struct {
	Buf []byte
	// Borrow makes Bytes return sub-slices of Buf instead of copies. See
	// the package doc for the ownership contract the caller must satisfy.
	Borrow bool
	off    int
	err    error
}

// Err returns the first decoding error encountered.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's sticky decoding error (first error
// wins). Decoders layered on top of Reader use it to surface structural
// violations — bad counts, non-canonical flags — through the same channel
// as truncation, so a caller checking Err cannot miss them.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.Buf) - r.off }

// Finish returns the reader's terminal state: the sticky error if one was
// recorded, otherwise ErrTrailing if unread bytes remain. Decoders of
// complete messages call it so that non-canonical frames carrying trailing
// garbage are rejected rather than silently accepted.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if rem := r.Remaining(); rem != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, rem)
	}
	return nil
}

func (r *Reader) need(n int) bool {
	if r.err == nil && r.off+n <= len(r.Buf) {
		return true
	}
	r.short(n)
	return false
}

// short records the truncation need found; it is its own function so that
// need stays small enough to inline into every field read.
func (r *Reader) short(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.Buf))
	}
}

// The typed reads below are the decoding arms of the Coder operations
// (coder.go); U8, U32 and U64 hold the one implementation of each integer.

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.Buf[r.off]
	r.off++
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.Buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.Buf[r.off:])
	r.off += 8
	return v
}

// Bytes reads a length-prefixed byte string. In the default mode the field
// is copied out; with Borrow set it sub-slices Buf (see BorrowBytes).
func (r *Reader) Bytes() []byte {
	var b []byte
	Decoder(r).Bytes(&b)
	return b
}

// BorrowBytes reads a length-prefixed byte string as a sub-slice of Buf,
// with capacity clipped to its length. No bytes are copied: the returned
// slice aliases Buf and stays valid exactly as long as Buf does. Callers
// must satisfy the ownership contract in the package doc.
func (r *Reader) BorrowBytes() []byte {
	n := r.bytesLen()
	if n < 0 {
		return nil
	}
	out := r.Buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// bytesLen consumes and bound-checks a byte-string length prefix, returning
// -1 after recording an error. The bound is MaxBytesLen (a byte length),
// not MaxElements (a collection count). The n < 0 arm matters on 32-bit
// platforms, where int(uint32) can wrap negative and would otherwise slip
// past both bounds into a panic.
func (r *Reader) bytesLen() int {
	if !r.need(4) {
		return -1
	}
	n := int(binary.BigEndian.Uint32(r.Buf[r.off:]))
	r.off += 4
	if n < 0 || n > MaxBytesLen {
		r.err = fmt.Errorf("%w: %d bytes", ErrOversize, uint32(n))
		return -1
	}
	if !r.need(n) {
		return -1
	}
	return n
}

// Hash reads a fixed 32-byte hash.
func (r *Reader) Hash() types.Hash {
	var h types.Hash
	Decoder(r).Hash(&h)
	return h
}

// MarshalDatablock returns a datablock's encoding, the Coder.Datablock
// walk. The encoding is canonical: equal datablocks produce equal bytes.
func MarshalDatablock(d *types.Datablock) []byte {
	walk := func(c Coder) { c.Datablock(&d) }
	return Encode(make([]byte, 0, Size(walk)), walk)
}

// UnmarshalDatablockBorrowed decodes the whole of buf as one datablock
// whose request payloads sub-slice buf: ownership of buf transfers to the
// returned block, per the package ownership contract. Trailing bytes are
// rejected, so the encoding stays canonical.
func UnmarshalDatablockBorrowed(buf []byte) (*types.Datablock, error) {
	var d *types.Datablock
	r := &Reader{Buf: buf, Borrow: true}
	Decoder(r).Datablock(&d)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return d, nil
}
