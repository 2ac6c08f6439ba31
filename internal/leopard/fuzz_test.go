package leopard

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage drives the wire decoder with arbitrary frames, seeded
// with one valid encoding of every wire kind. For any input it asserts:
//
//   - neither decode mode panics;
//   - borrow and copying decode agree on accept/reject;
//   - accepted frames re-encode bitwise-identically in both modes (the
//     borrowed sub-slices carry the same bytes as the copies);
//   - the encoding is canonical: an accepted frame IS its message's
//     re-encoding, so each message has exactly one accepted frame
//     (trailing bytes, non-0/1 bool bytes, oversize counts all reject);
//   - decode → encode is a fixpoint across a second round trip.
func FuzzDecodeMessage(f *testing.F) {
	for _, msg := range testMessages() {
		buf, err := EncodeMessage(msg)
		if err != nil {
			f.Fatalf("seed encode %T: %v", msg, err)
		}
		f.Add(buf)
	}
	// Adversarial seeds: trailing garbage, impossible proof counts.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0x07}, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		borrowed, errB := DecodeMessage(data)
		copied, errC := decodeMessageCopying(data)
		if (errB == nil) != (errC == nil) {
			t.Fatalf("decode modes disagree: borrow err=%v, copy err=%v", errB, errC)
		}
		if errB != nil {
			return
		}
		encB, err := EncodeMessage(borrowed)
		if err != nil {
			t.Fatalf("re-encode borrowed: %v", err)
		}
		encC, err := EncodeMessage(copied)
		if err != nil {
			t.Fatalf("re-encode copied: %v", err)
		}
		if !bytes.Equal(encB, encC) {
			t.Fatal("borrow and copying decodes re-encode differently")
		}
		if !bytes.Equal(encB, data) {
			t.Fatal("accepted frame is not canonical: re-encoding differs from input")
		}
		again, err := DecodeMessage(encB)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		enc2, err := EncodeMessage(again)
		if err != nil {
			t.Fatalf("re-encode after re-decode: %v", err)
		}
		if !bytes.Equal(encB, enc2) {
			t.Fatal("decode→encode is not a fixpoint")
		}
	})
}
