package transport

// StreamStats are the bulk-lane streaming / flow-control counters a
// transport reports per peer (and aggregated per replica): how much bulk
// data is parked waiting for credit, how much of the credit window is in
// flight, and how often the park budget forced an eviction. Both the TCP
// runtime and the simulator fill it from a StreamQueue, so experiments and
// the -status endpoint read one shape.
type StreamStats struct {
	// QueuedBytes is the bulk payload currently parked (accepted from the
	// node but not yet transmitted).
	QueuedBytes int64
	// PeakQueuedBytes is the high-water mark of QueuedBytes.
	PeakQueuedBytes int64
	// CreditsOutstanding is the portion of the credit window in flight:
	// bytes sent but not yet acknowledged consumed by the receiver.
	CreditsOutstanding int64
	// StreamsActive is the number of streams queued or mid-transmission.
	StreamsActive int64
	// Evictions counts streams dropped by the park-budget bound (the
	// slow-peer eviction path). Under credit flow control this is the only
	// way the bulk lane loses data.
	Evictions int64
}

// Accumulate adds o's counters into s (peak as max), for aggregating
// per-peer stats into a per-replica view.
func (s *StreamStats) Accumulate(o StreamStats) {
	s.QueuedBytes += o.QueuedBytes
	if o.PeakQueuedBytes > s.PeakQueuedBytes {
		s.PeakQueuedBytes = o.PeakQueuedBytes
	}
	s.CreditsOutstanding += o.CreditsOutstanding
	s.StreamsActive += o.StreamsActive
	s.Evictions += o.Evictions
}

// StreamQueue is the send-side policy of one peer's bulk lane, the single
// implementation behind the TCP runtime's per-peer scheduler and the
// simulator's per-pair flow: park-budget admission with oldest-unstarted
// eviction, round-robin over the first MaxStreams streams, the ChunkLen
// split with a partial chunk at low credit, and rewind for a fresh
// connection. It knows nothing of connections or clocks — the caller owns
// the credit window and passes what is left of it to Next — and it is
// generic over the queued item (an encoded frame, a simulated message).
//
// A StreamQueue is not safe for concurrent use, and beyond growing its
// stream slice it does not allocate.
type StreamQueue[T any] struct {
	cfg     StreamConfig
	streams []queuedStream[T]
	rr      int   // round-robin cursor over the active transmit set
	queued  int64 // unsent bytes across all streams
	peak    int64
	evicts  int64
}

// queuedStream is one admitted item mid-transmission.
type queuedStream[T any] struct {
	item T
	size int
	off  int
}

// Chunk is one unit of transmission handed out by StreamQueue.Next: Len
// bytes of Item starting at Offset, out of Total; Fin marks the chunk that
// ends its stream.
type Chunk[T any] struct {
	Item   T
	Offset int
	Len    int
	Total  int
	Fin    bool
}

// NewStreamQueue returns an empty queue under cfg (zero fields take the
// package defaults).
func NewStreamQueue[T any](cfg StreamConfig) StreamQueue[T] {
	cfg.Normalize()
	return StreamQueue[T]{cfg: cfg}
}

// Push admits item, size bytes long, as a new stream behind the queued
// ones. If parking it would exceed the park budget, the oldest streams that
// have not started transmitting are evicted first; if the budget still
// cannot fit it (everything left is mid-transmission, or the item alone
// exceeds the budget) the new item is dropped. evicted counts every stream
// lost, the new one included; ok reports whether item was admitted.
func (q *StreamQueue[T]) Push(item T, size int) (evicted int, ok bool) {
	need := int64(size)
	if q.queued+need > q.cfg.ParkBudget {
		kept := q.streams[:0]
		for _, st := range q.streams {
			if q.queued+need > q.cfg.ParkBudget && st.off == 0 {
				q.queued -= int64(st.size)
				evicted++
				continue
			}
			kept = append(kept, st)
		}
		clear(q.streams[len(kept):]) // release the evicted items
		q.streams = kept
		q.rr = 0
		if q.queued+need > q.cfg.ParkBudget {
			evicted++
			q.evicts += int64(evicted)
			return evicted, false
		}
		q.evicts += int64(evicted)
	}
	q.queued += need
	if q.queued > q.peak {
		q.peak = q.queued
	}
	q.streams = append(q.streams, queuedStream[T]{item: item, size: size})
	return evicted, true
}

// Next hands out the next chunk in round-robin order across the active
// transmit set (the first MaxStreams queued streams), at most credit bytes
// long: a chunk larger than the remaining credit is cut short rather than
// stalled until a full chunk's worth is granted. ok is false when nothing
// is sendable — no streams, or no credit (parked). A stream leaves the
// queue with its Fin chunk.
func (q *StreamQueue[T]) Next(credit int64) (c Chunk[T], ok bool) {
	if len(q.streams) == 0 || credit <= 0 {
		return c, false
	}
	active := min(len(q.streams), q.cfg.MaxStreams)
	if q.rr >= active {
		q.rr = 0
	}
	st := &q.streams[q.rr]
	n := q.cfg.ChunkLen(st.size, st.off)
	if int64(n) > credit {
		n = int(credit)
	}
	c = Chunk[T]{Item: st.item, Offset: st.off, Len: n, Total: st.size, Fin: st.off+n == st.size}
	st.off += n
	q.queued -= int64(n)
	if c.Fin {
		// rr now points at the next stream (or wraps at the top).
		last := len(q.streams) - 1
		copy(q.streams[q.rr:], q.streams[q.rr+1:])
		q.streams[last] = queuedStream[T]{}
		q.streams = q.streams[:last]
	} else {
		q.rr++
	}
	return c, true
}

// PushFront puts item back at the head of the queue, outside the park
// budget: it was admitted once already. Callers use it for a stream whose
// Fin chunk was handed out but never reached the receiver.
func (q *StreamQueue[T]) PushFront(item T, size int) {
	q.streams = append(q.streams, queuedStream[T]{})
	copy(q.streams[1:], q.streams)
	q.streams[0] = queuedStream[T]{item: item, size: size}
	q.queued += int64(size)
	if q.queued > q.peak {
		q.peak = q.queued
	}
}

// Rewind restarts every queued stream from offset zero: the receiver lost
// its partial-stream state (a fresh connection), so partially sent streams
// retransmit whole.
func (q *StreamQueue[T]) Rewind() {
	q.rr = 0
	q.queued = 0
	for i := range q.streams {
		q.streams[i].off = 0
		q.queued += int64(q.streams[i].size)
	}
	if q.queued > q.peak {
		q.peak = q.queued
	}
}

// Queued returns the unsent bytes parked across all streams.
func (q *StreamQueue[T]) Queued() int64 { return q.queued }

// Stats snapshots the queue's own counters; CreditsOutstanding is the
// caller's to fill.
func (q *StreamQueue[T]) Stats() StreamStats {
	return StreamStats{
		QueuedBytes:     q.queued,
		PeakQueuedBytes: q.peak,
		StreamsActive:   int64(len(q.streams)),
		Evictions:       q.evicts,
	}
}
