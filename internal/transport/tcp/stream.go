package tcp

import (
	"sync"
	"sync/atomic"

	"leopard/internal/obs"
	"leopard/internal/transport"
)

// streamSched is one peer's bulk-lane scheduler: the connection side of
// the lane. The queue policy — admission under the park budget, round-robin
// chunking, rewind — is transport.StreamQueue; this type adds what a
// connection needs around it: the lock shared by three goroutines, the
// send loop's wake-up, the connection epoch and its cumulative credit
// counters, stream ids and the chunk wire header. At zero credit it parks
// (nextChunk reports nothing to send) instead of dropping.
//
// Locking: the apply loop enqueues, the read loop grants, the send loop
// consumes; all three synchronize on mu. notify is a 1-buffered wake-up
// channel: any state change that could unpark the send loop signals it, so
// the send loop can block on (stop | control | notify) without missing a
// transition.
type streamSched struct {
	mu     sync.Mutex
	window int64 // StreamConfig.CreditWindow
	notify chan struct{}

	q transport.StreamQueue[outStream]
	// sending holds a stream whose final chunk has been handed to the
	// send loop but not yet confirmed written (chunkWritten); its frame is
	// nil when there is none. It has left the queue, yet must survive a
	// reconnect: resetConn requeues it, so a fin chunk that dies with the
	// connection is retransmitted instead of silently lost.
	sending outStream
	nextID  uint64 // stream id allocator

	// epoch numbers the peer connection. It increments on every
	// resetConn, is announced to the receiver in the hello, and stamps
	// every credit grant: the cumulative counters below are meaningless
	// across connections, so a grant still in flight from a dead
	// connection (grants travel on the reverse-direction connection,
	// which does not reset with this one) is discarded by its stale
	// epoch instead of inflating the fresh window.
	epoch uint32

	// Credit accounting is cumulative per connection epoch: sent counts
	// chunk payload bytes written, acked is the receiver's cumulative
	// consumed counter (CreditMsg), and the available credit is
	// window - (sent - acked). Cumulative counters make grants
	// idempotent: a duplicated or reordered grant is healed by max().
	sent  int64
	acked int64

	drops *atomic.Int64 // the peer's drop counter (shared with control)

	// trace, when set, emits a flow-control lifecycle event (park or
	// eviction) for this peer; the runtime installs it when Config.Tracer
	// is set. Called with mu held — the tracer has its own lock and never
	// calls back into the scheduler.
	trace func(kind obs.EventKind, aux int64)
}

// outStream is one queued bulk frame. Its id names the stream on the wire;
// ids are unique per scheduler, which is all a connection's reassembler
// needs.
type outStream struct {
	id    uint64
	frame *outFrame
}

// outFrame is one encoded bulk frame shared by the peers it was queued to.
// refs counts the emitter, while it fans the frame out, and every
// scheduler that admitted it; the last release, a fin chunk written or the
// emitter done, returns buf to the transport frame pool. A scheduler that
// evicts the frame never releases it, so the frame goes to the garbage
// collector instead.
type outFrame struct {
	buf  []byte
	refs atomic.Int32
}

// newOutFrame wraps buf with the emitter's reference.
func newOutFrame(buf []byte) *outFrame {
	f := &outFrame{buf: buf}
	f.refs.Store(1)
	return f
}

// release drops one reference; the last one returns the frame.
func (f *outFrame) release() {
	if f.refs.Add(-1) == 0 {
		transport.PutFrame(f.buf)
	}
}

func newStreamSched(cfg transport.StreamConfig, drops *atomic.Int64) *streamSched {
	return &streamSched{
		window: cfg.CreditWindow,
		notify: make(chan struct{}, 1),
		q:      transport.NewStreamQueue[outStream](cfg),
		drops:  drops,
	}
}

// signal wakes the send loop; the 1-buffered channel coalesces bursts.
func (s *streamSched) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// enqueue accepts one bulk frame as a new stream, taking a reference to it
// when admitted. Every stream the park budget evicts to make room — or the
// frame itself, when it cannot fit — counts against the peer's drop counter.
func (s *streamSched) enqueue(frame *outFrame) {
	s.mu.Lock()
	evicted, ok := s.q.Push(outStream{id: s.nextID, frame: frame}, len(frame.buf))
	if evicted > 0 {
		s.drops.Add(int64(evicted))
		for ; s.trace != nil && evicted > 0; evicted-- {
			s.trace(obs.EvCreditEvicted, s.q.Queued())
		}
	}
	if !ok {
		s.mu.Unlock()
		return
	}
	frame.refs.Add(1)
	s.nextID++
	if s.trace != nil && s.creditLocked() <= 0 {
		// The new stream parked immediately: zero credit at admission.
		s.trace(obs.EvCreditParked, s.q.Queued())
	}
	s.mu.Unlock()
	s.signal()
}

// grant applies a receiver credit grant (cumulative consumed bytes) if it
// carries the current connection epoch; grants from a dead connection are
// discarded.
func (s *streamSched) grant(epoch uint32, consumed int64) {
	s.mu.Lock()
	if epoch == s.epoch && consumed > s.acked {
		s.acked = consumed
	}
	s.mu.Unlock()
	s.signal()
}

// credit returns the available window. Callers hold mu.
func (s *streamSched) creditLocked() int64 {
	return s.window - (s.sent - s.acked)
}

// nextChunk takes the queue's next chunk and debits the credit window. It
// appends the chunk's stream header to dst[:0] and returns it with the
// payload slice; ok is false when there is nothing sendable — no streams,
// or zero credit (parked).
func (s *streamSched) nextChunk(dst []byte) (body, payload []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.q.Next(s.creditLocked())
	if !ok {
		return nil, nil, false
	}
	s.sent += int64(c.Len)
	if c.Fin {
		// The stream waits in the sending slot until the send loop
		// confirms the fin chunk reached the wire; a write failure
		// abandons the chunk and resetConn requeues the stream.
		s.sending = c.Item
	}
	body = transport.AppendStreamHeader(dst[:0], transport.StreamHeader{
		StreamID: c.Item.id,
		Offset:   uint64(c.Offset),
		Total:    uint64(c.Total),
		Fin:      c.Fin,
	})
	return body, c.Item.frame.buf[c.Offset : c.Offset+c.Len], true
}

// chunkWritten confirms the last dequeued chunk reached the wire. After a
// fin chunk it empties the sending slot and releases the stream's frame;
// after any other chunk it does nothing.
func (s *streamSched) chunkWritten() {
	s.mu.Lock()
	done := s.sending.frame
	s.sending = outStream{}
	s.mu.Unlock()
	if done != nil {
		done.release()
	}
}

// resetConn rewinds the scheduler for a fresh connection and returns its
// new epoch: the receiver lost all partial-stream and credit state with
// the old one, so every stream — including one whose fin chunk was in
// flight when the connection died — retransmits from offset zero under a
// full window, into the new connection's new reassembler.
func (s *streamSched) resetConn() uint32 {
	s.mu.Lock()
	s.epoch++
	s.sent, s.acked = 0, 0
	if s.sending.frame != nil {
		s.q.PushFront(s.sending, len(s.sending.frame.buf))
		s.sending = outStream{}
	}
	s.q.Rewind()
	epoch := s.epoch
	s.mu.Unlock()
	s.signal()
	return epoch
}

// stats snapshots the scheduler's flow-control counters.
func (s *streamSched) stats() transport.StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.q.Stats()
	st.CreditsOutstanding = s.sent - s.acked
	if s.sending.frame != nil {
		st.StreamsActive++
	}
	return st
}
