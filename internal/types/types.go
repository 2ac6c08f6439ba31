// Package types defines the fundamental identifiers, blocks and quorum
// arithmetic shared by every protocol in this repository.
//
// Terminology follows the Leopard paper (ICDCS 2022): non-leader replicas
// pack client requests into datablocks; the view leader links datablocks by
// hash into BFTblocks, which are what agreement instances decide on.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// ReplicaID identifies a replica. Replicas are indexed 0..n-1.
type ReplicaID uint32

// View is a view number. Views start at 1; view 0 is invalid.
type View uint64

// SeqNum is the serial number the leader assigns to a BFTblock within a view.
// Serial numbers start at 1.
type SeqNum uint64

// Hash is a 32-byte digest (SHA-256 sized).
type Hash [32]byte

// String renders the first four bytes of the hash, enough for logs.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:4]) }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// QuorumParams captures the n = 3f+1 arithmetic used throughout.
type QuorumParams struct {
	N int // total replicas
	F int // maximum Byzantine replicas
}

// NewQuorumParams derives f = floor((n-1)/3) for a given n.
// It returns an error for n < 4, the smallest BFT-viable scale.
func NewQuorumParams(n int) (QuorumParams, error) {
	if n < 4 {
		return QuorumParams{}, fmt.Errorf("quorum: n=%d is below the minimum of 4", n)
	}
	return QuorumParams{N: n, F: (n - 1) / 3}, nil
}

// Quorum is the vote threshold 2f+1.
func (q QuorumParams) Quorum() int { return 2*q.F + 1 }

// Small is the weak-certificate threshold f+1 (at least one honest replica).
func (q QuorumParams) Small() int { return q.F + 1 }

// Valid reports whether the parameters satisfy n >= 3f+1.
func (q QuorumParams) Valid() bool { return q.N >= 3*q.F+1 && q.F >= 1 }

// Request is a client request. Payload is opaque to consensus.
type Request struct {
	ClientID uint64
	Seq      uint64 // client-local sequence number, part of identity
	Payload  []byte
	// PayloadDigest is SHA-256(Payload) or zero, and a zero one is hashed
	// (PayloadHash). It is never encoded, so a decoded request carries
	// zero. The replica that admits a request sets it, so the signature
	// check and the datablock digest share one pass over the payload.
	PayloadDigest Hash
}

// ID returns a compact identity for deduplication: (client, seq).
func (r Request) ID() RequestID { return RequestID{Client: r.ClientID, Seq: r.Seq} }

// Size returns the wire size of the request in bytes, matching the codec
// encoding: client id + sequence + length prefix + payload.
func (r Request) Size() int { return 20 + len(r.Payload) }

// PayloadHash returns SHA-256(Payload): PayloadDigest when it is set,
// otherwise the payload hashed now.
func (r Request) PayloadHash() Hash {
	if !r.PayloadDigest.IsZero() {
		return r.PayloadDigest
	}
	return sha256.Sum256(r.Payload)
}

// AppendDigestInput appends the request's digest term, client id ‖ seq ‖
// PayloadHash (big-endian, 48 bytes), to buf. Datablock and HotStuff block
// digests absorb one term per request.
func (r Request) AppendDigestInput(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.ClientID)
	buf = binary.BigEndian.AppendUint64(buf, r.Seq)
	h := r.PayloadHash()
	return append(buf, h[:]...)
}

// RequestID identifies a request for dedup and ack tracking.
type RequestID struct {
	Client uint64
	Seq    uint64
}

// DatablockRef identifies a datablock by its generator and counter.
type DatablockRef struct {
	Generator ReplicaID
	Counter   uint64
}

// Datablock is a package of pending requests generated by a non-leader
// replica (Leopard Alg. 1): <datablock, (i, counter), R>.
type Datablock struct {
	Ref      DatablockRef
	Requests []Request
}

// PayloadBytes returns the total request payload bytes carried.
func (d *Datablock) PayloadBytes() int {
	total := 0
	for _, r := range d.Requests {
		total += len(r.Payload)
	}
	return total
}

// BlockState tracks a BFTblock through the two-round agreement.
type BlockState int

// Block states advance Pending -> Notarized -> Confirmed -> Executed.
const (
	StatePending BlockState = iota + 1
	StateNotarized
	StateConfirmed
	StateExecuted
)

// String implements fmt.Stringer.
func (s BlockState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateNotarized:
		return "notarized"
	case StateConfirmed:
		return "confirmed"
	case StateExecuted:
		return "executed"
	default:
		return fmt.Sprintf("BlockState(%d)", int(s))
	}
}

// BFTblock is the consensus proposal: <BFTblock, (v, sn), ct> where ct is a
// list of datablock hashes.
type BFTblock struct {
	View    View
	Seq     SeqNum
	Content []Hash // hashes of linked datablocks
}

// BlockID identifies an agreement instance: (view, seq).
type BlockID struct {
	View View
	Seq  SeqNum
}

// ID returns the block's agreement-instance identity.
func (b *BFTblock) ID() BlockID { return BlockID{View: b.View, Seq: b.Seq} }

// AppendDigestInput serializes the identity-bearing fields of b into buf for
// hashing. The encoding is length-prefixed and unambiguous.
func (b *BFTblock) AppendDigestInput(buf []byte) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(b.View))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(b.Seq))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(b.Content)))
	buf = append(buf, tmp[:4]...)
	for _, h := range b.Content {
		buf = append(buf, h[:]...)
	}
	return buf
}

// LeaderOf returns the round-robin leader of view v among n replicas,
// following the (v mod n) policy used by Leopard's view-change.
func LeaderOf(v View, n int) ReplicaID {
	return ReplicaID(uint64(v) % uint64(n))
}
