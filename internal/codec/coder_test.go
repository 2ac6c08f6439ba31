package codec

import (
	"errors"
	"reflect"
	"testing"

	"leopard/internal/types"
)

// sample exercises every Coder operation once.
type sample struct {
	ID     types.SeqNum
	Round  int
	Digest types.Hash
	Flag   bool
	Body   []byte
	Links  []types.Hash
	Next   *sample
}

func (s *sample) wire(c Coder) {
	U64(c, &s.ID)
	U8(c, &s.Round)
	c.Hash(&s.Digest)
	c.Bool(&s.Flag)
	c.Bytes(&s.Body)
	Slice(c, &s.Links, 3, Coder.Hash)
	Opt(c, &s.Next, func(c Coder, n *sample) { n.wire(c) })
}

func TestCoderWalkRoundTrip(t *testing.T) {
	in := &sample{
		ID: 7, Round: 2, Digest: types.Hash{1}, Flag: true, Body: []byte("body"),
		Links: []types.Hash{{2}, {3}},
		Next:  &sample{ID: 8, Body: []byte{}},
	}
	buf := Encode(nil, in.wire)
	for _, borrow := range []bool{false, true} {
		out := new(sample)
		r := &Reader{Buf: buf, Borrow: borrow}
		out.wire(Decoder(r))
		if err := r.Finish(); err != nil {
			t.Fatalf("borrow=%v: %v", borrow, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("borrow=%v: round trip\n got %+v\nwant %+v", borrow, out, in)
		}
		if aliases := &out.Body[0] == &buf[8+1+32+1+4]; aliases != borrow {
			t.Fatalf("borrow=%v: Body aliases the frame: %v", borrow, aliases)
		}
	}
	if err := Decode(append(buf, 0), new(sample).wire); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: %v, want ErrTrailing", err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if err := Decode(buf[:cut], new(sample).wire); err == nil {
			t.Fatalf("truncation at %d of %d decoded", cut, len(buf))
		}
	}
}

// TestCoderDecodeGuards: the guards a walk gets from the operations without
// writing them — the canonical bool, the element cap, and a count that lies
// about how many elements follow.
func TestCoderDecodeGuards(t *testing.T) {
	var flag bool
	if err := Decode([]byte{2}, func(c Coder) { c.Bool(&flag) }); err == nil {
		t.Error("bool byte 2 accepted")
	}

	var links []types.Hash
	walk := func(c Coder) { Slice(c, &links, 3, Coder.Hash) }
	w := &Writer{}
	w.U32(4)
	if err := Decode(w.Buf, walk); !errors.Is(err, ErrOversize) {
		t.Errorf("count 4 against a cap of 3: %v, want ErrOversize", err)
	}
	if links != nil {
		t.Errorf("a rejected count allocated %d elements", cap(links))
	}

	w = &Writer{}
	w.U32(3)
	w.Hash(types.Hash{1})
	if err := Decode(w.Buf, walk); !errors.Is(err, ErrTruncated) {
		t.Errorf("3 elements announced, 1 present: %v, want ErrTruncated", err)
	}
	if len(links) > 2 {
		t.Errorf("decoding went on for %d elements after the truncation", len(links)-1)
	}

	w = &Writer{}
	w.U32(MaxElements)
	w.Buf = append(w.Buf, make([]byte, 1024)...)
	if err := Decode(w.Buf, func(c Coder) { Slice(c, &links, MaxElements, Coder.Hash) }); !errors.Is(err, ErrTruncated) {
		t.Errorf("%d elements announced, 32 present: %v, want ErrTruncated", MaxElements, err)
	}
	if most := max(sliceReserve, 1024/32); cap(links) > most {
		t.Errorf("a lying count reserved %d elements against a 1 KiB remainder, at most %d allowed", cap(links), most)
	}
}
