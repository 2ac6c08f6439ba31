package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file defines the bulk-lane streaming layer shared by the TCP runtime
// and the simulator: the stream chunk header, the receive-side reassembler,
// the credit-grant message, and the configuration both transports derive
// their chunking and flow-control decisions from. The send side is
// StreamQueue (queue.go). Keeping the policy here (one queue, one chunking
// function, one set of limits, one grant threshold) is what lets simnet and
// the TCP runtime agree byte-for-byte on how a given envelope is split and
// when a sender parks.

// Stream flow-control defaults. See StreamConfig for the meaning of each.
const (
	DefaultChunkSize       = 64 << 10  // 64 KiB
	DefaultStreamThreshold = 256 << 10 // 256 KiB
	DefaultCreditWindow    = 4 << 20   // 4 MiB
	DefaultParkBudget      = 64 << 20  // 64 MiB
	DefaultMaxStreams      = 32
)

// StreamConfig parameterizes bulk-lane streaming and credit-based per-peer
// flow control. The zero value selects the defaults above; Normalize fills
// them in place.
type StreamConfig struct {
	// ChunkSize is the fixed chunk length large frames are split into.
	ChunkSize int
	// StreamThreshold is the largest frame shipped as a single chunk.
	// Frames above it are split into ChunkSize pieces so concurrent
	// streams to the same peer can interleave fairly; frames at or below
	// it ride as one chunk (offset 0, fin) to avoid split overhead.
	StreamThreshold int
	// CreditWindow is the per-peer byte budget a sender may have
	// outstanding (sent but not yet accounted consumed by the receiver).
	// When the window is exhausted the sender parks its streams instead
	// of dropping them; receiver grants (CreditMsg) reopen it.
	CreditWindow int64
	// ParkBudget bounds the bytes a sender will hold parked for one peer.
	// When exceeded, the oldest not-yet-started streams are evicted
	// (counted as drops) so a peer that never grants credit cannot pin
	// unbounded memory — the slow-peer eviction path.
	ParkBudget int64
	// MaxStreams caps how many streams are interleaved to one peer at a
	// time; further streams wait FIFO behind the active set. Receivers
	// enforce the same cap on concurrent partial streams and treat an
	// excess as a protocol violation.
	MaxStreams int
}

// Normalize fills zero fields with the package defaults in place.
func (c *StreamConfig) Normalize() {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.StreamThreshold <= 0 {
		c.StreamThreshold = DefaultStreamThreshold
	}
	if c.StreamThreshold < c.ChunkSize {
		// A threshold below the chunk size would make "unsplit" frames
		// smaller than a split frame's pieces; clamp up.
		c.StreamThreshold = c.ChunkSize
	}
	if c.CreditWindow <= 0 {
		c.CreditWindow = DefaultCreditWindow
	}
	if c.ParkBudget <= 0 {
		c.ParkBudget = DefaultParkBudget
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = DefaultMaxStreams
	}
}

// GrantThreshold is how many consumed bytes a receiver accumulates before
// flushing a credit grant: half the window, the classic window-update
// cadence that keeps the pipe full (the sender still holds half a window of
// credit when the grant for the first half is in flight).
func (c StreamConfig) GrantThreshold() int64 { return c.CreditWindow / 2 }

// ChunkLen returns the length of the chunk starting at offset within a
// stream of the given total length: the whole frame when it fits under the
// threshold, otherwise fixed ChunkSize pieces (the final piece carries the
// remainder). StreamQueue.Next is its only caller outside tests, so both
// transports split identically.
func (c StreamConfig) ChunkLen(total, offset int) int {
	if total <= c.StreamThreshold {
		return total - offset
	}
	remaining := total - offset
	if remaining > c.ChunkSize {
		return c.ChunkSize
	}
	return remaining
}

// StreamHeader prefixes every chunk on the wire.
//
// Wire layout (StreamHeaderSize bytes, big-endian):
//
//	stream id (8) | offset (8) | total (8) | flags (1)
//
// The stream id is allocated by the sender per (peer, stream); offsets are
// contiguous (each chunk starts where the previous one ended); total is the
// full reassembled frame length and must be identical on every chunk of a
// stream; flags bit 0 (fin) marks the final chunk, whose end must land
// exactly on total.
type StreamHeader struct {
	StreamID uint64
	Offset   uint64
	Total    uint64
	Fin      bool
}

// StreamHeaderSize is the encoded size of a StreamHeader.
const StreamHeaderSize = 8 + 8 + 8 + 1

const finFlag = 0x01

// AppendStreamHeader appends the encoded header to dst.
func AppendStreamHeader(dst []byte, h StreamHeader) []byte {
	var buf [StreamHeaderSize]byte
	binary.BigEndian.PutUint64(buf[0:8], h.StreamID)
	binary.BigEndian.PutUint64(buf[8:16], h.Offset)
	binary.BigEndian.PutUint64(buf[16:24], h.Total)
	if h.Fin {
		buf[24] = finFlag
	}
	return append(dst, buf[:]...)
}

// Errors surfaced by ParseStreamHeader and Reassembler.Add. They signal
// protocol violations: a transport receiving one must fail loudly (drop the
// connection), never silently resynchronize.
var (
	ErrStreamHeader = errors.New("transport: malformed stream chunk header")
	ErrStreamState  = errors.New("transport: stream chunk violates stream state")
)

// ParseStreamHeader decodes a chunk's StreamHeaderSize-byte header. The
// payload that follows it is read separately (Reassembler.Add).
func ParseStreamHeader(hdr []byte) (StreamHeader, error) {
	if len(hdr) != StreamHeaderSize {
		return StreamHeader{}, fmt.Errorf("%w: %d bytes", ErrStreamHeader, len(hdr))
	}
	flags := hdr[24]
	if flags&^finFlag != 0 {
		return StreamHeader{}, fmt.Errorf("%w: unknown flags %#x", ErrStreamHeader, flags)
	}
	return StreamHeader{
		StreamID: binary.BigEndian.Uint64(hdr[0:8]),
		Offset:   binary.BigEndian.Uint64(hdr[8:16]),
		Total:    binary.BigEndian.Uint64(hdr[16:24]),
		Fin:      flags&finFlag != 0,
	}, nil
}

// Reassembler rebuilds bulk frames from interleaved stream chunks arriving
// from one peer. It is not safe for concurrent use (each read loop owns
// one).
//
// Add enforces the sender contract strictly — consistent totals, contiguous
// offsets, fin exactly at total, at most MaxStreams concurrent partial
// streams, totals bounded by maxTotal — and returns an error on any
// violation or on duplicated/overlapping/oversized chunks. A chunk's
// payload is read from its source straight into the stream's frame buffer,
// so each byte is copied once. Every stream buffer is drawn from the frame
// pool (GetFrame); a completed frame's ownership transfers to the caller,
// and the reassembler keeps no reference, so it can go to a zero-copy
// Codec.Decode. A stream dropped on a violation leaves its buffer to the
// garbage collector.
type Reassembler struct {
	cfg      StreamConfig
	maxTotal int
	partial  map[uint64]partialStream
}

type partialStream struct {
	buf   []byte // the whole frame, from the pool
	recvd int    // bytes of buf received so far
}

// NewReassembler builds a reassembler; maxTotal bounds the reassembled
// frame size (a transport passes its frame-size limit).
func NewReassembler(cfg StreamConfig, maxTotal int) *Reassembler {
	cfg.Normalize()
	return &Reassembler{cfg: cfg, maxTotal: maxTotal, partial: make(map[uint64]partialStream)}
}

// Streams returns the number of incomplete streams currently held.
func (r *Reassembler) Streams() int { return len(r.partial) }

// Buffered returns the bytes currently held across incomplete streams.
func (r *Reassembler) Buffered() int64 {
	var n int64
	for _, p := range r.partial {
		n += int64(p.recvd)
	}
	return n
}

// Add processes one chunk whose n payload bytes come next from src. It
// checks the chunk against the stream's state before reading anything,
// then reads the payload into the stream's frame buffer. It returns the
// complete frame when this chunk finishes its stream, nil while the stream
// is still partial, and an error on any contract violation or short read
// (the caller must treat the peer as faulty). A short read drops the
// chunk's stream, so no half-filled stream is left behind.
func (r *Reassembler) Add(h StreamHeader, n int, src io.Reader) ([]byte, error) {
	if h.Total == 0 || h.Total > uint64(r.maxTotal) {
		return nil, fmt.Errorf("%w: total %d outside (0, %d]", ErrStreamState, h.Total, r.maxTotal)
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: empty chunk", ErrStreamState)
	}
	end := h.Offset + uint64(n)
	if end < h.Offset || end > h.Total {
		return nil, fmt.Errorf("%w: chunk [%d, %d) exceeds total %d", ErrStreamState, h.Offset, end, h.Total)
	}
	p, ok := r.partial[h.StreamID]
	if !ok {
		if h.Offset != 0 {
			return nil, fmt.Errorf("%w: stream %d starts at offset %d", ErrStreamState, h.StreamID, h.Offset)
		}
		if len(r.partial) >= r.cfg.MaxStreams {
			return nil, fmt.Errorf("%w: over %d concurrent streams", ErrStreamState, r.cfg.MaxStreams)
		}
		p = partialStream{buf: GetFrame(int(h.Total))}
	}
	if uint64(len(p.buf)) != h.Total {
		return nil, fmt.Errorf("%w: stream %d total changed %d -> %d", ErrStreamState, h.StreamID, len(p.buf), h.Total)
	}
	if h.Offset != uint64(p.recvd) {
		// Covers duplicates, overlaps and gaps alike: chunks of one stream
		// arrive strictly in order on a reliable transport.
		return nil, fmt.Errorf("%w: stream %d offset %d, want %d", ErrStreamState, h.StreamID, h.Offset, p.recvd)
	}
	done := end == h.Total
	if h.Fin != done {
		delete(r.partial, h.StreamID)
		if h.Fin {
			return nil, fmt.Errorf("%w: fin at %d of %d bytes", ErrStreamState, end, h.Total)
		}
		return nil, fmt.Errorf("%w: stream %d complete without fin", ErrStreamState, h.StreamID)
	}
	if _, err := io.ReadFull(src, p.buf[p.recvd:end]); err != nil {
		delete(r.partial, h.StreamID)
		return nil, fmt.Errorf("stream %d chunk [%d, %d): %w", h.StreamID, h.Offset, end, err)
	}
	p.recvd = int(end)
	if !done {
		r.partial[h.StreamID] = p
		return nil, nil
	}
	delete(r.partial, h.StreamID)
	return p.buf, nil
}

// CreditMsg is the control-lane flow-control grant: the receiver tells a
// sender how many bulk-lane bytes it has consumed, reopening the sender's
// credit window. Consumed counts chunk payload bytes and is cumulative per
// connection epoch, so a lost or duplicated grant is healed by the next
// one (receivers of duplicates take the max), and a grant that was in
// flight across a reconnect — whose counter belongs to the dead
// connection — is discarded by its stale epoch instead of corrupting the
// fresh window. CreditMsg is transport-internal: it is never delivered to
// the protocol node.
type CreditMsg struct {
	// Consumed is the cumulative count of bulk payload bytes the receiver
	// has accepted on this connection epoch.
	Consumed int64
}

var _ Message = (*CreditMsg)(nil)

// CreditWireSize is the on-wire cost of one credit grant (frame length
// prefix + frame kind + the 4-byte connection epoch + the 8-byte
// cumulative counter).
const CreditWireSize = 4 + 1 + 4 + 8

// WireSize implements Message.
func (m *CreditMsg) WireSize() int { return CreditWireSize }

// Class and Policy implement Message. Credit grants are transport control
// traffic; they ride the control lane and are accounted under ClassMisc.
func (m *CreditMsg) Class() Class   { return ClassMisc }
func (m *CreditMsg) Policy() Policy { return PolicyControl }
