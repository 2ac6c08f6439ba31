package codec

import (
	"fmt"
	"unsafe"

	"leopard/internal/types"
)

// Coder runs one field walk in either direction. A message or record
// describes its layout once, as a sequence of Coder operations on pointers
// to its fields: backed by a Writer the walk appends each field, backed by
// a Reader it fills each field in, and run by Size it adds up each field's
// bytes. So the encoder, the decoder and the size of a type cannot drift
// apart.
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
	n *int // the count arm's tally: set by Size only, w and r are nil
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

// Size returns the length of walk's encoding without encoding it. Handed
// to a walk it cannot see, the tally would escape like Encode's Writer, so
// it lives in a pooled Writer lent for the walk: sizing allocates nothing.
func Size(walk func(Coder)) int {
	w := GetWriter()
	w.n = 0
	walk(Coder{n: &w.n})
	n := w.n
	PutWriter(w)
	return n
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

// u8, u32 and u64 move one integer in whichever arm c is: encoding
// appends v and counting adds its width, both returning v; decoding returns
// the Reader's typed read (zero once the Reader has failed). The generic
// wrappers above inline, so a field costs a walk one call in any arm.
func (c Coder) u8(v uint8) uint8 {
	switch {
	case c.r != nil:
		return c.r.U8()
	case c.n != nil:
		*c.n++
	default:
		c.w.U8(v)
	}
	return v
}

func (c Coder) u32(v uint32) uint32 {
	switch {
	case c.r != nil:
		return c.r.U32()
	case c.n != nil:
		*c.n += 4
	default:
		c.w.U32(v)
	}
	return v
}

func (c Coder) u64(v uint64) uint64 {
	switch {
	case c.r != nil:
		return c.r.U64()
	case c.n != nil:
		*c.n += 8
	default:
		c.w.U64(v)
	}
	return v
}

// Hash walks a fixed 32-byte hash.
func (c Coder) Hash(h *types.Hash) {
	switch r := c.r; {
	case c.n != nil:
		*c.n += len(h)
	case r == nil:
		c.w.Hash(*h)
	case r.need(len(h)):
		copy(h[:], r.Buf[r.off:])
		r.off += len(h)
	}
}

// Bytes walks a length-prefixed byte string. Decoding in borrow mode, the
// field sub-slices the frame (see the package doc's ownership contract).
func (c Coder) Bytes(b *[]byte) {
	r := c.r
	switch {
	case c.n != nil:
		*c.n += 4 + len(*b)
		return
	case r == nil:
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
		c.u8(v)
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

// sliceReserve is how many elements Slice may make room for as soon as it
// has read a count, whatever the frame holds: enough that the short
// sequences of the hot messages (a Merkle proof's steps, a query's digests)
// are one allocation, small enough that a lying count buys an adversary
// nothing.
const sliceReserve = 64

// Slice walks a uint32 element count followed by the elements. Decoding
// rejects a count above limit before allocating anything, then reserves
// the count's elements, but no more memory than the frame has bytes left
// (and at least sliceReserve elements), so a datablock's requests are one
// allocation and a lying count is not. It stops at the first element that
// fails; a zero count leaves the slice nil.
func Slice[T any](c Coder, s *[]T, limit int, elem func(Coder, *T)) {
	if c.r == nil {
		c.u32(uint32(len(*s)))
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
	var zero T
	if n > 0 {
		fits := c.r.Remaining() / max(1, int(unsafe.Sizeof(zero)))
		*s = make([]T, 0, min(n, max(sliceReserve, fits)))
	}
	for i := 0; i < n && c.r.err == nil; i++ {
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

// Request walks one client request.
func (c Coder) Request(p *types.Request) {
	U64(c, &p.ClientID)
	U64(c, &p.Seq)
	c.Bytes(&p.Payload)
}

// Datablock walks a datablock: its reference, then its requests.
// Retrieval erasure-codes and hashes exactly these bytes. Decoding
// allocates the block.
func (c Coder) Datablock(p **types.Datablock) {
	if c.r != nil {
		*p = new(types.Datablock)
	}
	d := *p
	U32(c, &d.Ref.Generator)
	U64(c, &d.Ref.Counter)
	Slice(c, &d.Requests, MaxElements, Coder.Request)
}

// BFTblock walks a BFTblock: its view, its sequence number and the
// datablock hashes it links. Decoding allocates the block.
func (c Coder) BFTblock(p **types.BFTblock) {
	if c.r != nil {
		*p = new(types.BFTblock)
	}
	b := *p
	U64(c, &b.View)
	U64(c, &b.Seq)
	Slice(c, &b.Content, MaxElements, Coder.Hash)
}
