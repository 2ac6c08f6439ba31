package leopard

import (
	"fmt"

	"leopard/internal/codec"
	"leopard/internal/transport"
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

// Wire kinds: the first byte of every frame. Values are part of the wire
// contract.
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
	numKinds // one past the last kind: the length of the kind table
)

// kinds maps a wire kind to the constructor of its message: the one place a
// kind is bound to a type. Indexing the literal by kind makes two messages
// claiming one kind a compile error, a type that is not a complete
// wireMessage does not instantiate newMessage, and a kind constant without
// an entry is a nil slot (TestKindTable).
var kinds = [numKinds]func() (wireMessage, *codec.Reader){
	kindDatablock:       newMessage[DatablockMsg],
	kindReady:           newMessage[ReadyMsg],
	kindBFTblock:        newMessage[BFTblockMsg],
	kindVote:            newMessage[VoteMsg],
	kindProof:           newMessage[ProofMsg],
	kindQuery:           newMessage[QueryMsg],
	kindResp:            newMessage[RespMsg],
	kindFullBlock:       newMessage[FullBlockMsg],
	kindCheckpoint:      newMessage[CheckpointMsg],
	kindCheckpointProof: newMessage[CheckpointProofMsg],
	kindTimeout:         newMessage[TimeoutMsg],
	kindViewChange:      newMessage[ViewChangeMsg],
	kindNewView:         newMessage[NewViewMsg],
	kindStateReq:        newMessage[StateReqMsg],
	kindStateResp:       newMessage[StateRespMsg],
	kindRequest:         newMessage[RequestMsg],
	kindReply:           newMessage[ReplyMsg],
}

// newMessage allocates a message together with the Reader that fills it.
// The walk is reached through the wireMessage interface, so the Reader it is
// handed must live on the heap; sharing the message's allocation makes a
// decoded frame cost one allocation and no pool round trip.
func newMessage[T any, P interface {
	*T
	wireMessage
}]() (wireMessage, *codec.Reader) {
	d := new(struct {
		msg T
		r   codec.Reader
	})
	return P(&d.msg), &d.r
}

// EncodeMessage serializes any Leopard protocol message into a frame body
// beginning with its wire kind.
func EncodeMessage(msg transport.Message) ([]byte, error) {
	m, ok := msg.(wireMessage)
	if !ok {
		return nil, fmt.Errorf("leopard: cannot encode message type %T", msg)
	}
	buf := make([]byte, 1, 1+codec.Size(m.wire))
	buf[0] = m.kind()
	return codec.Encode(buf, m.wire), nil
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
	if buf[0] >= numKinds || kinds[buf[0]] == nil {
		return nil, fmt.Errorf("leopard: unknown wire kind %d", buf[0])
	}
	m, r := kinds[buf[0]]()
	r.Buf, r.Borrow = buf[1:], borrow
	m.wire(codec.Decoder(r))
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if !borrow {
		// The Reader lives as long as m does. A borrowing message owns the
		// frame anyway; a copying one must not keep it reachable.
		r.Buf = nil
	}
	return m, nil
}
