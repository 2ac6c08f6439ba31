package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"leopard/internal/types"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	w := &Writer{}
	w.U8(7)
	w.U32(123456)
	w.U64(1 << 40)
	w.Bytes([]byte("payload"))
	w.Hash(types.Hash{1, 2, 3})

	r := &Reader{Buf: w.Buf}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 123456 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Hash(); got != (types.Hash{1, 2, 3}) {
		t.Errorf("Hash = %v", got)
	}
	if r.Err() != nil {
		t.Errorf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left over", r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := &Reader{Buf: []byte{1, 2}}
	_ = r.U32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("want ErrTruncated, got %v", r.Err())
	}
	// Errors are sticky.
	_ = r.U8()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Error("error must stick")
	}
}

func TestBytesOversizeRejected(t *testing.T) {
	for name, read := range map[string]func(*Reader) []byte{
		"copy":   (*Reader).Bytes,
		"borrow": (*Reader).BorrowBytes,
	} {
		w := &Writer{}
		w.U32(uint32(MaxBytesLen + 1))
		r := &Reader{Buf: w.Buf}
		if read(r) != nil || !errors.Is(r.Err(), ErrOversize) {
			t.Errorf("%s: want ErrOversize, got %v", name, r.Err())
		}
	}
}

// TestBytesBoundIsByteLengthNotElementCount is the regression test for the
// MaxElements/MaxBytesLen conflation: a field longer than the collection
// bound (4 Mi elements) but within the byte bound (64 MiB) is a legal chunk
// and must decode.
func TestBytesBoundIsByteLengthNotElementCount(t *testing.T) {
	big := make([]byte, MaxElements+1)
	big[0], big[len(big)-1] = 0xab, 0xcd
	w := &Writer{}
	w.Bytes(big)
	for name, read := range map[string]func(*Reader) []byte{
		"copy":   (*Reader).Bytes,
		"borrow": (*Reader).BorrowBytes,
	} {
		r := &Reader{Buf: w.Buf}
		got := read(r)
		if r.Err() != nil {
			t.Fatalf("%s: %d-byte field rejected: %v", name, len(big), r.Err())
		}
		if !bytes.Equal(got, big) {
			t.Fatalf("%s: field corrupted", name)
		}
	}
}

func TestBorrowBytesAliasesBuffer(t *testing.T) {
	w := &Writer{}
	w.Bytes([]byte("abcdef"))
	w.Bytes([]byte("rest"))

	r := &Reader{Buf: w.Buf, Borrow: true}
	got := r.Bytes() // dispatches to BorrowBytes via the mode flag
	if !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("Bytes = %q", got)
	}
	if &got[0] != &w.Buf[4] {
		t.Error("borrow mode must sub-slice the frame, not copy")
	}
	if cap(got) != len(got) {
		t.Errorf("borrowed slice capacity %d not clipped to length %d", cap(got), len(got))
	}

	// Copying mode must return an independent slice.
	r = &Reader{Buf: w.Buf}
	got = r.Bytes()
	if &got[0] == &w.Buf[4] {
		t.Error("copy mode must not alias the frame")
	}
}

func TestReaderFailSticks(t *testing.T) {
	r := &Reader{Buf: []byte{1, 2, 3, 4}}
	first := errors.New("first")
	r.Fail(first)
	r.Fail(errors.New("second"))
	if r.Err() != first {
		t.Errorf("first error must win, got %v", r.Err())
	}
	if got := r.U32(); got != 0 {
		t.Errorf("failed reader must not yield values, got %d", got)
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	r := &Reader{Buf: []byte{1, 2}}
	_ = r.U8()
	if err := r.Finish(); !errors.Is(err, ErrTrailing) {
		t.Errorf("want ErrTrailing, got %v", err)
	}
	_ = r.U8()
	if err := r.Finish(); err != nil {
		t.Errorf("fully consumed reader must finish clean, got %v", err)
	}
}

// decodeDatablock decodes the whole of buf as one datablock, copying its
// payloads out.
func decodeDatablock(buf []byte) (*types.Datablock, error) {
	var d *types.Datablock
	if err := Decode(buf, func(c Coder) { c.Datablock(&d) }); err != nil {
		return nil, err
	}
	return d, nil
}

func encodeBFTblock(b *types.BFTblock) []byte {
	return Encode(nil, func(c Coder) { c.BFTblock(&b) })
}

func decodeBFTblock(buf []byte) (*types.BFTblock, error) {
	var b *types.BFTblock
	if err := Decode(buf, func(c Coder) { c.BFTblock(&b) }); err != nil {
		return nil, err
	}
	return b, nil
}

func TestDatablockRoundTrip(t *testing.T) {
	db := &types.Datablock{
		Ref: types.DatablockRef{Generator: 9, Counter: 42},
		Requests: []types.Request{
			{ClientID: 1, Seq: 1, Payload: []byte("first")},
			{ClientID: 2, Seq: 7, Payload: nil},
			{ClientID: 3, Seq: 0, Payload: bytes.Repeat([]byte{0xaa}, 1000)},
		},
	}
	buf := MarshalDatablock(db)
	got, err := decodeDatablock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ref != db.Ref || len(got.Requests) != len(db.Requests) {
		t.Fatalf("header mismatch: %+v", got.Ref)
	}
	for i := range db.Requests {
		if got.Requests[i].ClientID != db.Requests[i].ClientID ||
			got.Requests[i].Seq != db.Requests[i].Seq ||
			!bytes.Equal(got.Requests[i].Payload, db.Requests[i].Payload) {
			t.Fatalf("request %d mismatch", i)
		}
	}
}

func TestDatablockCanonical(t *testing.T) {
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 1, Counter: 2},
		Requests: []types.Request{{ClientID: 5, Seq: 6, Payload: []byte("x")}},
	}
	if !bytes.Equal(MarshalDatablock(db), MarshalDatablock(db)) {
		t.Fatal("encoding must be deterministic")
	}
}

func TestDatablockTruncated(t *testing.T) {
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 1, Counter: 2},
		Requests: []types.Request{{ClientID: 5, Seq: 6, Payload: []byte("xyz")}},
	}
	buf := MarshalDatablock(db)
	for cut := 1; cut < len(buf); cut += 3 {
		if _, err := decodeDatablock(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDatablockTrailingGarbageRejected is the regression test for the
// decoder accepting non-canonical frames with leftover bytes.
func TestDatablockTrailingGarbageRejected(t *testing.T) {
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 1, Counter: 2},
		Requests: []types.Request{{ClientID: 5, Seq: 6, Payload: []byte("xyz")}},
	}
	buf := append(MarshalDatablock(db), 0x00)
	if _, err := decodeDatablock(buf); !errors.Is(err, ErrTrailing) {
		t.Errorf("copying decode: want ErrTrailing, got %v", err)
	}
	if _, err := UnmarshalDatablockBorrowed(buf); !errors.Is(err, ErrTrailing) {
		t.Errorf("borrowed decode: want ErrTrailing, got %v", err)
	}
}

// TestDatablockBorrowedAliasesInput pins the zero-copy property: borrowed
// decode sub-slices the input buffer instead of copying payloads.
func TestDatablockBorrowedAliasesInput(t *testing.T) {
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 1, Counter: 2},
		Requests: []types.Request{{ClientID: 5, Seq: 6, Payload: bytes.Repeat([]byte{7}, 100)}},
	}
	buf := MarshalDatablock(db)

	borrowed, err := UnmarshalDatablockBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: ref (4+8) + count (4) + client/seq (8+8) + len (4) = offset 36.
	p := borrowed.Requests[0].Payload
	if &p[0] != &buf[36] {
		t.Error("borrowed payload must sub-slice the input buffer")
	}

	copied, err := decodeDatablock(buf)
	if err != nil {
		t.Fatal(err)
	}
	q := copied.Requests[0].Payload
	if &q[0] == &p[0] {
		t.Error("copying decode must not alias the input buffer")
	}
	if !bytes.Equal(p, q) {
		t.Error("borrowed and copied payloads must match")
	}
}

func TestBFTblockRoundTrip(t *testing.T) {
	b := &types.BFTblock{View: 3, Seq: 99, Content: []types.Hash{{1}, {2}, {3}}}
	got, err := decodeBFTblock(encodeBFTblock(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, b)
	}
}

func TestBFTblockEmptyContent(t *testing.T) {
	b := &types.BFTblock{View: 1, Seq: 1}
	got, err := decodeBFTblock(encodeBFTblock(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.View != 1 || got.Seq != 1 || len(got.Content) != 0 {
		t.Fatalf("unexpected block %+v", got)
	}
}

// TestPropertyDatablockRoundTrip fuzzes datablock encode/decode.
func TestPropertyDatablockRoundTrip(t *testing.T) {
	check := func(gen uint32, counter uint64, payloads [][]byte) bool {
		db := &types.Datablock{Ref: types.DatablockRef{Generator: types.ReplicaID(gen), Counter: counter}}
		for i, p := range payloads {
			db.Requests = append(db.Requests, types.Request{ClientID: uint64(i), Seq: counter, Payload: p})
		}
		got, err := decodeDatablock(MarshalDatablock(db))
		if err != nil {
			return false
		}
		if got.Ref != db.Ref || len(got.Requests) != len(db.Requests) {
			return false
		}
		for i := range db.Requests {
			if !bytes.Equal(got.Requests[i].Payload, db.Requests[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyGarbageInput feeds random bytes to the decoders; they must
// error or succeed but never panic.
func TestPropertyGarbageInput(t *testing.T) {
	check := func(data []byte) bool {
		_, _ = decodeDatablock(data)
		_, _ = UnmarshalDatablockBorrowed(data)
		_, _ = decodeBFTblock(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
