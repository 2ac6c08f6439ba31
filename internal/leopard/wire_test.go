package leopard

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/merkle"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// decodeMessageCopying is the copy-mode reference the differential tests
// compare borrow-mode DecodeMessage against.
func decodeMessageCopying(buf []byte) (transport.Message, error) {
	return decodeMessage(buf, false)
}

func roundTrip(t *testing.T, msg transport.Message) transport.Message {
	t.Helper()
	buf, err := EncodeMessage(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return got
}

func TestWireRoundTripAllKinds(t *testing.T) {
	for _, msg := range testMessages() {
		got := roundTrip(t, msg)
		switch want := msg.(type) {
		case *DatablockMsg:
			gd := got.(*DatablockMsg)
			if gd.Block.Ref != want.Block.Ref || len(gd.Block.Requests) != len(want.Block.Requests) {
				t.Errorf("datablock round trip mismatch")
			}
		default:
			if !reflect.DeepEqual(got, msg) {
				t.Errorf("%T round trip mismatch:\n got %#v\nwant %#v", msg, got, msg)
			}
		}
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := DecodeMessage([]byte{0xff, 1, 2, 3}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Truncations of a valid frame must all error (or decode cleanly for
	// prefix-complete messages), never panic.
	buf, err := EncodeMessage(&VoteMsg{Block: types.BlockID{View: 1, Seq: 2}, Round: 1, Digest: types.Hash{1}, Share: crypto.Share{Signer: 1, Sig: []byte("abc")}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeMessage(buf[:cut]); err == nil {
			t.Fatalf("truncated vote at %d accepted", cut)
		}
	}
}

// testMessages returns one instance of every wire kind, for tests that
// must cover the whole message surface.
func testMessages() []transport.Message {
	share := crypto.Share{Signer: 3, Sig: []byte("sig-bytes")}
	proof := crypto.Proof{Sig: []byte("proof-bytes")}
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 2, Counter: 7},
		Requests: []types.Request{{ClientID: 1, Seq: 2, Payload: []byte("pay")}},
	}
	block := &types.BFTblock{View: 1, Seq: 9, Content: []types.Hash{{1}, {2}}}
	cp := &CheckpointProofMsg{Seq: 50, StateHash: types.Hash{9}, Proof: proof}
	vc := ViewChangeMsg{
		NewView:    4,
		Checkpoint: cp,
		Sender:     3,
		Blocks: []NotarizedBlock{
			{Block: block, Digest: types.Hash{5}, Notarized: proof},
			{Block: block, Digest: types.Hash{6}, Notarized: proof, Confirmed: &proof},
		},
		Share: share,
	}
	return []transport.Message{
		&DatablockMsg{Block: db},
		&ReadyMsg{Digest: types.Hash{1, 2}},
		&BFTblockMsg{Block: block, LeaderShare: share},
		&VoteMsg{Block: block.ID(), Round: 2, Digest: types.Hash{3}, Share: share},
		&ProofMsg{Block: block.ID(), Round: 1, Digest: types.Hash{4}, Proof: proof},
		&QueryMsg{Digests: []types.Hash{{7}, {8}}},
		&RespMsg{
			Digest: types.Hash{1}, Root: types.Hash{2},
			Chunk: []byte("chunk"), Index: 3, DataLen: 100,
			Proof: merkle.Proof{Index: 3, Steps: []merkle.ProofStep{{Hash: types.Hash{9}, Right: true}}},
		},
		&FullBlockMsg{Digest: crypto.HashDatablock(db), Block: db},
		&CheckpointMsg{Seq: 10, StateHash: types.Hash{5}, Share: share},
		cp,
		&TimeoutMsg{View: 2, Share: share},
		&vc,
		&NewViewMsg{NewView: 4, Proofs: []ViewChangeMsg{vc}, Share: share},
		&StateReqMsg{Have: 41},
		&RequestMsg{
			Req: types.Request{ClientID: 7, Seq: 12, Payload: []byte("signed-pay")},
			Sig: []byte("client-sig-64-bytes"),
		},
		&ReplyMsg{Client: 7, Seq: 12, SN: 51, Result: types.Hash{8}, Share: share},
		&StateRespMsg{
			Checkpoint: cp,
			Blocks: []*storage.BlockRecord{{
				Seq:        51,
				Block:      &types.BFTblock{View: 2, Seq: 51, Content: []types.Hash{crypto.HashDatablock(db)}},
				Notarized:  proof,
				Confirmed:  crypto.Proof{Sig: []byte("sigma2")},
				Datablocks: []*types.Datablock{db},
			}},
		},
	}
}

// TestKindTable checks what the compiler cannot about the kind table: every
// kind from 1 up to numKinds — the table is that long, so a kind constant
// nobody gave an entry is a nil slot here — constructs a message that names
// that kind, belongs to a named accounting class, and has a frame among the
// FuzzDecodeMessage seeds; and the seeds hold no kind the table lacks.
func TestKindTable(t *testing.T) {
	seeded := make(map[int]bool)
	for _, msg := range testMessages() {
		seeded[int(msg.(wireMessage).kind())] = true
	}
	if kinds[0] != nil {
		t.Error("kind 0 is taken: a zeroed frame must not decode")
	}
	for k := 1; k < len(kinds); k++ {
		if kinds[k] == nil {
			t.Errorf("kind %d has no message: the table has a gap", k)
			continue
		}
		m, _ := kinds[k]()
		if int(m.kind()) != k {
			t.Errorf("%T sits at kind %d but encodes as kind %d", m, k, m.kind())
		}
		if c := m.Class(); c == 0 || int(c) >= transport.NumClasses || c.String() == "unknown" {
			t.Errorf("%T has class %d, not a named transport.Class", m, c)
		}
		if !seeded[k] {
			t.Errorf("%T is missing from testMessages(): the fuzzer never starts from a valid frame of it", m)
		}
		delete(seeded, k)
	}
	for k := range seeded {
		t.Errorf("testMessages() holds kind %d, which the table does not", k)
	}
}

// TestDecodeRejectsTrailingGarbage is the regression test for DecodeMessage
// accepting non-canonical frames: every kind must reject leftover bytes
// after its last field, in both decode modes.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	for _, msg := range testMessages() {
		buf, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		extended := append(buf, 0x00)
		if _, err := DecodeMessage(extended); err == nil {
			t.Errorf("%T: borrow decode accepted trailing garbage", msg)
		}
		if _, err := decodeMessageCopying(extended); err == nil {
			t.Errorf("%T: copying decode accepted trailing garbage", msg)
		}
	}
}

// TestDecodeRejectsOversizeMerkleProof is the regression test for
// readMerkleProof silently returning an empty proof on count > 64: a
// malformed RespMsg used to decode "successfully" with no inclusion proof.
func TestDecodeRejectsOversizeMerkleProof(t *testing.T) {
	w := &codec.Writer{}
	w.U8(kindResp)
	w.Hash(types.Hash{1}) // digest
	w.Hash(types.Hash{2}) // root
	w.Bytes([]byte("chunk"))
	w.U32(3)   // index
	w.U32(100) // data len
	w.U32(3)   // proof index
	w.U32(65)  // proof step count: impossible, must be rejected
	for i := 0; i < 65; i++ {
		w.Hash(types.Hash{byte(i)})
		w.U8(0)
	}
	if _, err := DecodeMessage(w.Buf); err == nil {
		t.Fatal("RespMsg with 65 proof steps decoded successfully")
	}
	if _, err := decodeMessageCopying(w.Buf); err == nil {
		t.Fatal("RespMsg with 65 proof steps decoded successfully (copying)")
	}
}

// TestDecodeRejectsNonCanonicalBoolBytes asserts flag bytes other than 0/1
// are rejected, so a message cannot be re-served under alternate frames.
func TestDecodeRejectsNonCanonicalBoolBytes(t *testing.T) {
	proof := crypto.Proof{Sig: []byte("proof-bytes")}
	vc := &ViewChangeMsg{
		NewView: 4,
		Sender:  3,
		Blocks: []NotarizedBlock{{
			Block:     &types.BFTblock{View: 1, Seq: 9},
			Digest:    types.Hash{5},
			Notarized: proof,
		}},
		Share: crypto.Share{Signer: 3, Sig: []byte("sig-bytes")},
	}
	buf, err := EncodeMessage(vc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(buf); err != nil {
		t.Fatalf("canonical frame must decode: %v", err)
	}
	// The checkpoint-present flag (0) sits right after kind + view + sender.
	flagOff := 1 + 8 + 4
	if buf[flagOff] != 0 {
		t.Fatalf("test layout drifted: flag byte at %d is %d", flagOff, buf[flagOff])
	}
	mutated := append([]byte(nil), buf...)
	mutated[flagOff] = 2
	if _, err := DecodeMessage(mutated); err == nil {
		t.Error("flag byte 2 accepted: message has multiple valid frames")
	}
}

// TestBorrowAndCopyDecodeAgree asserts the two decode modes produce
// bitwise-identical messages for every wire kind. The extra datablock
// carries its digest and its request its payload digest, and so does the
// extra client request: neither digest travels, so both modes must decode
// them as zero, which is what makes a receiver hash the block and the
// payload.
func TestBorrowAndCopyDecodeAgree(t *testing.T) {
	payload := []byte("digested")
	req := types.Request{ClientID: 4, Seq: 5, Payload: payload, PayloadDigest: crypto.HashBytes(payload)}
	db := &types.Datablock{
		Ref:      types.DatablockRef{Generator: 1, Counter: 3},
		Requests: []types.Request{req},
	}
	digested := &DatablockMsg{Block: db, Digest: crypto.HashDatablock(db)}
	for _, msg := range append(testMessages(), digested, &RequestMsg{Req: req, Sig: []byte("sig")}) {
		buf, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		borrowed, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("borrow decode %T: %v", msg, err)
		}
		copied, err := decodeMessageCopying(buf)
		if err != nil {
			t.Fatalf("copying decode %T: %v", msg, err)
		}
		encB, err := EncodeMessage(borrowed)
		if err != nil {
			t.Fatalf("re-encode borrowed %T: %v", msg, err)
		}
		encC, err := EncodeMessage(copied)
		if err != nil {
			t.Fatalf("re-encode copied %T: %v", msg, err)
		}
		if !bytes.Equal(encB, encC) {
			t.Errorf("%T: borrow and copy decodes disagree", msg)
		}
		if !bytes.Equal(encB, buf) {
			t.Errorf("%T: decode/encode not a fixpoint", msg)
		}
		for mode, got := range map[string]transport.Message{"borrow": borrowed, "copying": copied} {
			var reqs []types.Request
			switch m := got.(type) {
			case *DatablockMsg:
				if !m.Digest.IsZero() {
					t.Errorf("%s decode of a DatablockMsg returned Digest %x; a digest must never travel", mode, m.Digest)
				}
				reqs = m.Block.Requests
			case *RequestMsg:
				reqs = []types.Request{m.Req}
			}
			for _, r := range reqs {
				if !r.PayloadDigest.IsZero() {
					t.Errorf("%s decode of a %T returned PayloadDigest %x; a digest must never travel", mode, got, r.PayloadDigest)
				}
			}
		}
	}
}

// TestDecodeBorrowsChunkFromFrame pins the tentpole property: the dominant
// field of a decoded RespMsg sub-slices the frame instead of being copied.
func TestDecodeBorrowsChunkFromFrame(t *testing.T) {
	resp := &RespMsg{
		Digest: types.Hash{1}, Root: types.Hash{2},
		Chunk: bytes.Repeat([]byte{7}, 1024), Index: 3, DataLen: 4096,
		Proof: merkle.Proof{Index: 3, Steps: []merkle.ProofStep{{Hash: types.Hash{9}, Right: true}}},
	}
	buf, err := EncodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	// Frame layout: kind (1) + digest (32) + root (32) + chunk len (4).
	const chunkOff = 1 + 32 + 32 + 4

	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	chunk := got.(*RespMsg).Chunk
	if &chunk[0] != &buf[chunkOff] {
		t.Error("borrow decode must sub-slice the chunk from the frame")
	}

	got, err = decodeMessageCopying(buf)
	if err != nil {
		t.Fatal(err)
	}
	chunk = got.(*RespMsg).Chunk
	if &chunk[0] == &buf[chunkOff] {
		t.Error("copying decode must not alias the frame")
	}
	if !bytes.Equal(chunk, resp.Chunk) {
		t.Error("chunk corrupted by copying decode")
	}
}

// TestPropertyWireGarbage fuzzes the decoder with random bytes.
func TestPropertyWireGarbage(t *testing.T) {
	check := func(data []byte) bool {
		_, _ = DecodeMessage(data) // must not panic
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWireSizeIsEncodedLength: WireSize, which times every simulated
// message, is the frame body's length plus the modelled hdrSize, for every
// kind and for the state-transfer record, and sizing allocates nothing.
func TestWireSizeIsEncodedLength(t *testing.T) {
	for _, msg := range testMessages() {
		buf, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		if got, want := msg.WireSize(), hdrSize-1+len(buf); got != want {
			t.Errorf("%T: WireSize %d, encoded %d bytes plus header: %d", msg, got, len(buf), want)
		}
		if allocs := testing.AllocsPerRun(10, func() { msg.WireSize() }); allocs != 0 {
			t.Errorf("%T: WireSize allocates %.0f times", msg, allocs)
		}
		if sr, ok := msg.(*StateRespMsg); ok {
			for _, rec := range sr.Blocks {
				if got, want := rec.WireSize(), len(codec.Encode(nil, rec.Wire)); got != want {
					t.Errorf("BlockRecord: WireSize %d, encoded %d bytes", got, want)
				}
			}
		}
	}
}
