package leopard

import (
	"bytes"
	"testing"

	"leopard/internal/crypto"
	"leopard/internal/merkle"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// benchDecode measures both decode modes over one encoded frame, reporting
// MB/s of frame bytes and allocs/op. The borrow/copy delta is the cost of
// the per-field copies the zero-copy path eliminates.
func benchDecode(b *testing.B, msg transport.Message) {
	buf, err := EncodeMessage(msg)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name   string
		decode func([]byte) (transport.Message, error)
	}{
		{"borrow", DecodeMessage},
		{"copy", decodeMessageCopying},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mode.decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeVote(b *testing.B) {
	benchDecode(b, &VoteMsg{
		Block:  types.BlockID{View: 3, Seq: 1000},
		Round:  1,
		Digest: types.Hash{1},
		Share:  crypto.Share{Signer: 2, Sig: bytes.Repeat([]byte{0xee}, 64)},
	})
}

func BenchmarkDecodeResp(b *testing.B) {
	steps := make([]merkle.ProofStep, 6) // 64-chunk tree
	benchDecode(b, &RespMsg{
		Digest:  types.Hash{1},
		Root:    types.Hash{2},
		Chunk:   bytes.Repeat([]byte{0xc1}, 32<<10), // 1 MiB block over k=32
		Index:   7,
		DataLen: 1 << 20,
		Proof:   merkle.Proof{Index: 7, Steps: steps},
	})
}

func BenchmarkDecodeDatablock(b *testing.B) {
	db := &types.Datablock{Ref: types.DatablockRef{Generator: 1, Counter: 9}}
	for i := 0; i < 256; i++ {
		db.Requests = append(db.Requests, types.Request{
			ClientID: uint64(i),
			Seq:      uint64(i),
			Payload:  bytes.Repeat([]byte{byte(i)}, 512),
		})
	}
	benchDecode(b, &DatablockMsg{Block: db})
}

// BenchmarkEncodeDatablock frames a 256 × 128 B datablock: one allocation
// per frame, sized exactly by the walk's count.
func BenchmarkEncodeDatablock(b *testing.B) {
	db := &types.Datablock{Ref: types.DatablockRef{Generator: 1, Counter: 9}}
	for i := 0; i < 256; i++ {
		db.Requests = append(db.Requests, types.Request{
			ClientID: uint64(i),
			Seq:      uint64(i),
			Payload:  bytes.Repeat([]byte{byte(i)}, 128),
		})
	}
	msg := &DatablockMsg{Block: db}
	b.SetBytes(int64(msg.WireSize() - hdrSize + 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeMessage(msg); err != nil {
			b.Fatal(err)
		}
	}
}
