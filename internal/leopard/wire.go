package leopard

import (
	"fmt"

	"leopard/internal/codec"
	"leopard/internal/crypto"
	"leopard/internal/merkle"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// WireCodec adapts EncodeMessage/DecodeMessage to the transport.Codec
// interface. Decode runs in borrow mode: it takes ownership of the frame,
// per the transport.Codec contract.
type WireCodec struct{}

var _ transport.Codec = WireCodec{}

// Encode serializes a Leopard message.
func (WireCodec) Encode(msg transport.Message) ([]byte, error) { return EncodeMessage(msg) }

// Decode parses a Leopard message, taking ownership of buf.
func (WireCodec) Decode(buf []byte) (transport.Message, error) { return DecodeMessage(buf) }

// Wire kinds for the TCP transport. Values are part of the wire contract.
const (
	kindDatablock uint8 = iota + 1
	kindReady
	kindBFTblock
	kindVote
	kindProof
	kindQuery
	kindResp
	kindFullBlock
	kindCheckpoint
	kindCheckpointProof
	kindTimeout
	kindViewChange
	kindNewView
	kindStateReq
	kindStateResp
	kindRequest
	kindReply
)

func writeShare(w *codec.Writer, s crypto.Share) {
	w.U32(uint32(s.Signer))
	w.Bytes(s.Sig)
}

func readShare(r *codec.Reader) crypto.Share {
	return crypto.Share{Signer: types.ReplicaID(r.U32()), Sig: r.Bytes()}
}

func writeProof(w *codec.Writer, p crypto.Proof) { w.Bytes(p.Sig) }

func readProof(r *codec.Reader) crypto.Proof { return crypto.Proof{Sig: r.Bytes()} }

func writeBlockID(w *codec.Writer, id types.BlockID) {
	w.U64(uint64(id.View))
	w.U64(uint64(id.Seq))
}

func readBlockID(r *codec.Reader) types.BlockID {
	return types.BlockID{View: types.View(r.U64()), Seq: types.SeqNum(r.U64())}
}

func writeMerkleProof(w *codec.Writer, p merkle.Proof) {
	w.U32(uint32(p.Index))
	w.U32(uint32(len(p.Steps)))
	for _, s := range p.Steps {
		w.Hash(s.Hash)
		if s.Right {
			w.U8(1)
		} else {
			w.U8(0)
		}
	}
}

// readBool decodes a canonical boolean byte, failing the reader on any
// value other than 0 or 1: together with the trailing-bytes check this
// gives every message exactly one accepted frame (no alternate encodings
// for an adversary to re-serve the same message under).
func readBool(r *codec.Reader) bool {
	switch b := r.U8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("leopard: non-canonical bool byte %d", b))
		return false
	}
}

func readMerkleProof(r *codec.Reader) merkle.Proof {
	p := merkle.Proof{Index: int(r.U32())}
	count := int(r.U32())
	if count < 0 || count > 64 { // a 2^64-leaf tree is impossible; < 0: 32-bit wrap
		r.Fail(fmt.Errorf("leopard: merkle proof with %d steps", uint32(count)))
		return merkle.Proof{}
	}
	for i := 0; i < count; i++ {
		step := merkle.ProofStep{Hash: r.Hash(), Right: readBool(r)}
		p.Steps = append(p.Steps, step)
	}
	return p
}

// EncodeMessage serializes any Leopard protocol message into a frame body
// beginning with its wire kind.
func EncodeMessage(msg transport.Message) ([]byte, error) {
	w := &codec.Writer{Buf: make([]byte, 0, msg.WireSize()+16)}
	switch m := msg.(type) {
	case *DatablockMsg:
		w.U8(kindDatablock)
		codec.MarshalDatablockTo(w, m.Block)
	case *ReadyMsg:
		w.U8(kindReady)
		w.Hash(m.Digest)
	case *BFTblockMsg:
		w.U8(kindBFTblock)
		codec.MarshalBFTblock(w, m.Block)
		writeShare(w, m.LeaderShare)
	case *VoteMsg:
		w.U8(kindVote)
		writeBlockID(w, m.Block)
		w.U8(uint8(m.Round))
		w.Hash(m.Digest)
		writeShare(w, m.Share)
	case *ProofMsg:
		w.U8(kindProof)
		writeBlockID(w, m.Block)
		w.U8(uint8(m.Round))
		w.Hash(m.Digest)
		writeProof(w, m.Proof)
	case *QueryMsg:
		w.U8(kindQuery)
		w.U32(uint32(len(m.Digests)))
		for _, h := range m.Digests {
			w.Hash(h)
		}
	case *RespMsg:
		w.U8(kindResp)
		w.Hash(m.Digest)
		w.Hash(m.Root)
		w.Bytes(m.Chunk)
		w.U32(uint32(m.Index))
		w.U32(uint32(m.DataLen))
		writeMerkleProof(w, m.Proof)
	case *FullBlockMsg:
		w.U8(kindFullBlock)
		w.Hash(m.Digest)
		codec.MarshalDatablockTo(w, m.Block)
	case *CheckpointMsg:
		w.U8(kindCheckpoint)
		w.U64(uint64(m.Seq))
		w.Hash(m.StateHash)
		writeShare(w, m.Share)
	case *CheckpointProofMsg:
		w.U8(kindCheckpointProof)
		w.U64(uint64(m.Seq))
		w.Hash(m.StateHash)
		writeProof(w, m.Proof)
	case *TimeoutMsg:
		w.U8(kindTimeout)
		w.U64(uint64(m.View))
		writeShare(w, m.Share)
	case *ViewChangeMsg:
		w.U8(kindViewChange)
		encodeViewChange(w, m)
	case *NewViewMsg:
		w.U8(kindNewView)
		w.U64(uint64(m.NewView))
		w.U32(uint32(len(m.Proofs)))
		for i := range m.Proofs {
			encodeViewChange(w, &m.Proofs[i])
		}
		writeShare(w, m.Share)
	case *StateReqMsg:
		w.U8(kindStateReq)
		w.U64(uint64(m.Have))
	case *StateRespMsg:
		w.U8(kindStateResp)
		if m.Checkpoint != nil {
			w.U8(1)
			w.U64(uint64(m.Checkpoint.Seq))
			w.Hash(m.Checkpoint.StateHash)
			writeProof(w, m.Checkpoint.Proof)
		} else {
			w.U8(0)
		}
		w.U32(uint32(len(m.Blocks)))
		for _, rec := range m.Blocks {
			storage.AppendBlockRecord(w, rec)
		}
	case *RequestMsg:
		w.U8(kindRequest)
		codec.MarshalRequest(w, m.Req)
		w.Bytes(m.Sig)
	case *ReplyMsg:
		w.U8(kindReply)
		w.U64(m.Client)
		w.U64(m.Seq)
		w.U64(uint64(m.SN))
		w.Hash(m.Result)
		writeShare(w, m.Share)
	default:
		return nil, fmt.Errorf("leopard: cannot encode message type %T", msg)
	}
	return w.Buf, nil
}

func encodeViewChange(w *codec.Writer, m *ViewChangeMsg) {
	w.U64(uint64(m.NewView))
	w.U32(uint32(m.Sender))
	if m.Checkpoint != nil {
		w.U8(1)
		w.U64(uint64(m.Checkpoint.Seq))
		w.Hash(m.Checkpoint.StateHash)
		writeProof(w, m.Checkpoint.Proof)
	} else {
		w.U8(0)
	}
	w.U32(uint32(len(m.Blocks)))
	for i := range m.Blocks {
		nb := &m.Blocks[i]
		codec.MarshalBFTblock(w, nb.Block)
		w.Hash(nb.Digest)
		writeProof(w, nb.Notarized)
		if nb.Confirmed != nil {
			w.U8(1)
			writeProof(w, *nb.Confirmed)
		} else {
			w.U8(0)
		}
	}
	writeShare(w, m.Share)
}

func decodeViewChange(r *codec.Reader) (*ViewChangeMsg, error) {
	m := &ViewChangeMsg{
		NewView: types.View(r.U64()),
		Sender:  types.ReplicaID(r.U32()),
	}
	if readBool(r) {
		m.Checkpoint = &CheckpointProofMsg{
			Seq:       types.SeqNum(r.U64()),
			StateHash: r.Hash(),
			Proof:     readProof(r),
		}
	}
	count := int(r.U32())
	if count < 0 || count > codec.MaxElements {
		return nil, fmt.Errorf("leopard: view-change carries %d blocks", count)
	}
	for i := 0; i < count; i++ {
		block, err := codec.UnmarshalBFTblock(r)
		if err != nil {
			return nil, err
		}
		nb := NotarizedBlock{Block: block, Digest: r.Hash(), Notarized: readProof(r)}
		if readBool(r) {
			p := readProof(r)
			nb.Confirmed = &p
		}
		m.Blocks = append(m.Blocks, nb)
	}
	m.Share = readShare(r)
	return m, r.Err()
}

// DecodeMessage parses a frame body produced by EncodeMessage. It decodes
// in borrow mode: every variable-length field of the returned message
// (signature shares, combined proofs, retrieval chunks, request payloads)
// sub-slices buf, so ownership of buf transfers to the message and the
// caller must neither modify nor recycle it afterwards. The TCP transport
// satisfies this by allocating one fresh frame per message, as do the
// client-port readers (client.ReadFrame). Frames with bytes left over
// after the last field are rejected, keeping the encoding canonical.
func DecodeMessage(buf []byte) (transport.Message, error) {
	return decodeMessage(buf, true)
}

// decodeMessage is the decoder behind DecodeMessage. With borrow false it
// copies every variable-length field out of buf instead; the two modes
// decode bitwise-identical messages, which the differential tests assert.
func decodeMessage(buf []byte, borrow bool) (transport.Message, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("leopard: empty frame")
	}
	r := &codec.Reader{Buf: buf[1:], Borrow: borrow}
	var msg transport.Message
	switch buf[0] {
	case kindDatablock:
		db, err := codec.UnmarshalDatablockFrom(r)
		if err != nil {
			return nil, err
		}
		msg = &DatablockMsg{Block: db}
	case kindReady:
		msg = &ReadyMsg{Digest: r.Hash()}
	case kindBFTblock:
		block, err := codec.UnmarshalBFTblock(r)
		if err != nil {
			return nil, err
		}
		msg = &BFTblockMsg{Block: block, LeaderShare: readShare(r)}
	case kindVote:
		msg = &VoteMsg{Block: readBlockID(r), Round: int(r.U8()), Digest: r.Hash(), Share: readShare(r)}
	case kindProof:
		msg = &ProofMsg{Block: readBlockID(r), Round: int(r.U8()), Digest: r.Hash(), Proof: readProof(r)}
	case kindQuery:
		count := int(r.U32())
		if count < 0 || count > codec.MaxElements {
			return nil, fmt.Errorf("leopard: query carries %d digests", count)
		}
		q := &QueryMsg{}
		// Stop on the first truncation error instead of spinning out count
		// zero-hash appends from a lying prefix.
		for i := 0; i < count && r.Err() == nil; i++ {
			q.Digests = append(q.Digests, r.Hash())
		}
		msg = q
	case kindResp:
		msg = &RespMsg{
			Digest:  r.Hash(),
			Root:    r.Hash(),
			Chunk:   r.Bytes(),
			Index:   int(r.U32()),
			DataLen: int(r.U32()),
			Proof:   readMerkleProof(r),
		}
	case kindFullBlock:
		digest := r.Hash()
		db, err := codec.UnmarshalDatablockFrom(r)
		if err != nil {
			return nil, err
		}
		msg = &FullBlockMsg{Digest: digest, Block: db}
	case kindCheckpoint:
		msg = &CheckpointMsg{Seq: types.SeqNum(r.U64()), StateHash: r.Hash(), Share: readShare(r)}
	case kindCheckpointProof:
		msg = &CheckpointProofMsg{Seq: types.SeqNum(r.U64()), StateHash: r.Hash(), Proof: readProof(r)}
	case kindTimeout:
		msg = &TimeoutMsg{View: types.View(r.U64()), Share: readShare(r)}
	case kindViewChange:
		vc, err := decodeViewChange(r)
		if err != nil {
			return nil, err
		}
		msg = vc
	case kindNewView:
		nv := &NewViewMsg{NewView: types.View(r.U64())}
		count := int(r.U32())
		if count < 0 || count > codec.MaxElements {
			return nil, fmt.Errorf("leopard: new-view carries %d proofs", count)
		}
		for i := 0; i < count; i++ {
			vc, err := decodeViewChange(r)
			if err != nil {
				return nil, err
			}
			nv.Proofs = append(nv.Proofs, *vc)
		}
		nv.Share = readShare(r)
		msg = nv
	case kindStateReq:
		msg = &StateReqMsg{Have: types.SeqNum(r.U64())}
	case kindStateResp:
		sr := &StateRespMsg{}
		if readBool(r) {
			sr.Checkpoint = &CheckpointProofMsg{
				Seq:       types.SeqNum(r.U64()),
				StateHash: r.Hash(),
				Proof:     readProof(r),
			}
		}
		count := int(r.U32())
		if count < 0 || count > MaxStateBlocks {
			return nil, fmt.Errorf("leopard: state response carries %d blocks", count)
		}
		for i := 0; i < count; i++ {
			rec, err := storage.ReadBlockRecord(r)
			if err != nil {
				return nil, err
			}
			sr.Blocks = append(sr.Blocks, rec)
		}
		msg = sr
	case kindRequest:
		msg = &RequestMsg{Req: codec.UnmarshalRequest(r), Sig: r.Bytes()}
	case kindReply:
		msg = &ReplyMsg{
			Client: r.U64(),
			Seq:    r.U64(),
			SN:     types.SeqNum(r.U64()),
			Result: r.Hash(),
			Share:  readShare(r),
		}
	default:
		return nil, fmt.Errorf("leopard: unknown wire kind %d", buf[0])
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return msg, nil
}
