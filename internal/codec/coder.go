package codec

import (
	"encoding/binary"
	"fmt"

	"leopard/internal/types"
)

// Coder runs one field walk in either direction. A message or record
// describes its layout once, as a sequence of Coder operations on pointers
// to its fields: backed by a Writer the walk appends each field, backed by
// a Reader it fills each field in, so the encoder and the decoder of a type
// cannot drift apart.
//
// What only decoding needs lives in the operations, not in the walks: Bool
// accepts the bytes 0 and 1 only, Slice caps the element count and stops at
// the first truncation, Bytes borrows or copies as Reader.Borrow says, and
// the first failure sticks on the Reader — later operations leave their
// fields zero — so a walk carries no error plumbing and its driver checks
// Reader.Finish once. Encoding never writes through a field pointer: one
// message may be encoded from several goroutines at once.
type Coder struct {
	w *Writer
	r *Reader
}

// Encoder returns a Coder whose walks append to w.
func Encoder(w *Writer) Coder { return Coder{w: w} }

// Decoder returns a Coder whose walks read from r, in r's borrow mode.
func Decoder(r *Reader) Coder { return Coder{r: r} }

// Encode appends walk's encoding to buf and returns the extended buffer. It
// is the driver for a walk reached through an interface or a method value:
// what such a call is handed escapes, so the Writer wrapped around buf is a
// pooled one, lent for the walk, instead of an allocation per frame.
func Encode(buf []byte, walk func(Coder)) []byte {
	w := GetWriter()
	pooled := w.Buf
	w.Buf = buf
	walk(Encoder(w))
	buf, w.Buf = w.Buf, pooled
	PutWriter(w)
	return buf
}

// Decode runs walk over the whole of buf, copying byte-string fields out of
// it, and returns the walk's first failure, or ErrTrailing if it left bytes
// unread. It allocates its Reader: it is for records read once, at replay.
func Decode(buf []byte, walk func(Coder)) error {
	r := &Reader{Buf: buf}
	walk(Decoder(r))
	return r.Finish()
}

// Decoding reports the direction, for the walks that must allocate what a
// pointer field points to before descending into it.
func (c Coder) Decoding() bool { return c.r != nil }

// U8 walks an integer field carried as one byte.
func U8[T ~uint8 | ~int](c Coder, v *T) {
	if x := c.u8(uint8(*v)); c.r != nil {
		*v = T(x)
	}
}

// U32 walks an integer field carried as a big-endian uint32.
func U32[T ~uint32 | ~int](c Coder, v *T) {
	if x := c.u32(uint32(*v)); c.r != nil {
		*v = T(x)
	}
}

// U64 walks an integer field carried as a big-endian uint64.
func U64[T ~uint64](c Coder, v *T) {
	if x := c.u64(uint64(*v)); c.r != nil {
		*v = T(x)
	}
}

// u8, u32 and u64 move one integer: encoding appends v and returns it,
// decoding returns the value read (zero once the Reader has failed). Each
// holds both arms, and the generic wrappers above inline, so a field costs a
// walk one call in either direction; the Reader's typed reads are these.
func (c Coder) u8(v uint8) uint8 {
	r := c.r
	if r == nil {
		c.w.U8(v)
		return v
	}
	if !r.need(1) {
		return 0
	}
	v = r.Buf[r.off]
	r.off++
	return v
}

func (c Coder) u32(v uint32) uint32 {
	r := c.r
	if r == nil {
		c.w.U32(v)
		return v
	}
	if !r.need(4) {
		return 0
	}
	v = binary.BigEndian.Uint32(r.Buf[r.off:])
	r.off += 4
	return v
}

func (c Coder) u64(v uint64) uint64 {
	r := c.r
	if r == nil {
		c.w.U64(v)
		return v
	}
	if !r.need(8) {
		return 0
	}
	v = binary.BigEndian.Uint64(r.Buf[r.off:])
	r.off += 8
	return v
}

// Hash walks a fixed 32-byte hash.
func (c Coder) Hash(h *types.Hash) {
	r := c.r
	if r == nil {
		c.w.Hash(*h)
		return
	}
	if r.need(32) {
		copy(h[:], r.Buf[r.off:])
		r.off += 32
	}
}

// Bytes walks a length-prefixed byte string. Decoding in borrow mode, the
// field sub-slices the frame (see the package doc's ownership contract).
func (c Coder) Bytes(b *[]byte) {
	r := c.r
	if r == nil {
		c.w.Bytes(*b)
		return
	}
	n := r.bytesLen()
	if n < 0 {
		return
	}
	end := r.off + n
	if r.Borrow {
		*b = r.Buf[r.off:end:end]
	} else {
		*b = make([]byte, n)
		copy(*b, r.Buf[r.off:])
	}
	r.off = end
}

// Bool walks a flag byte. Only 0 and 1 decode: together with the
// trailing-bytes check this gives every value exactly one accepted
// encoding, so an adversary cannot re-serve a message under another frame.
func (c Coder) Bool(b *bool) {
	if c.r == nil {
		var v uint8
		if *b {
			v = 1
		}
		c.w.U8(v)
		return
	}
	switch v := c.r.U8(); v {
	case 0:
		*b = false
	case 1:
		*b = true
	default:
		c.r.Fail(fmt.Errorf("codec: non-canonical bool byte %d", v))
	}
}

// sliceReserve is how many elements Slice makes room for as soon as it has
// read a count: enough that the short sequences of the hot messages (a
// Merkle proof's steps, a query's digests) are one allocation, small enough
// that a lying count buys an adversary nothing.
const sliceReserve = 64

// Slice walks a uint32 element count followed by the elements. Decoding
// rejects a count above limit before allocating anything, reserves at most
// sliceReserve elements ahead of the bytes that back them, and stops at the
// first element that fails; a zero count leaves the slice nil.
func Slice[T any](c Coder, s *[]T, limit int, elem func(Coder, *T)) {
	if c.r == nil {
		c.w.U32(uint32(len(*s)))
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	n := int(c.r.U32())
	if n < 0 || n > limit { // < 0: 32-bit int(uint32) wrap
		c.r.Fail(fmt.Errorf("%w: %d elements, at most %d allowed", ErrOversize, uint32(n), limit))
		return
	}
	if n > 0 {
		*s = make([]T, 0, min(n, sliceReserve))
	}
	for i := 0; i < n && c.r.err == nil; i++ {
		var zero T
		*s = append(*s, zero)
		elem(c, &(*s)[i])
	}
}

// Opt walks an optional value: a Bool presence flag, then the value if
// present. Decoding allocates the value.
func Opt[T any](c Coder, p **T, elem func(Coder, *T)) {
	present := *p != nil
	c.Bool(&present)
	if !present {
		return
	}
	if c.r != nil {
		*p = new(T)
	}
	elem(c, *p)
}

// Datablock walks a datablock through MarshalDatablockTo and
// UnmarshalDatablockFrom: retrieval erasure-codes and hashes exactly those
// bytes, so the layout stays theirs.
func (c Coder) Datablock(p **types.Datablock) {
	if c.r == nil {
		MarshalDatablockTo(c.w, *p)
	} else if c.r.err == nil {
		d, err := UnmarshalDatablockFrom(c.r)
		c.r.Fail(err) // a nil err records nothing
		*p = d
	}
}

// BFTblock walks a BFTblock through MarshalBFTblock and UnmarshalBFTblock.
func (c Coder) BFTblock(p **types.BFTblock) {
	if c.r == nil {
		MarshalBFTblock(c.w, *p)
	} else if c.r.err == nil {
		b, err := UnmarshalBFTblock(c.r)
		c.r.Fail(err)
		*p = b
	}
}

// Request walks one client request through MarshalRequest and
// UnmarshalRequest.
func (c Coder) Request(p *types.Request) {
	if c.r == nil {
		MarshalRequest(c.w, *p)
	} else {
		*p = UnmarshalRequest(c.r)
	}
}
