package tcp

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"

	"leopard/internal/transport"
)

// schedCfg is a small, easily reasoned-about flow-control configuration
// used by the scheduler table tests: 100-byte chunks, 250-byte window,
// 1000-byte park budget.
func schedCfg() transport.StreamConfig {
	cfg := transport.StreamConfig{
		ChunkSize:       100,
		StreamThreshold: 100,
		CreditWindow:    250,
		ParkBudget:      1000,
		MaxStreams:      4,
	}
	cfg.Normalize()
	return cfg
}

// drain pulls chunks until the scheduler parks, returning the payload
// bytes pulled per chunk.
func drain(s *streamSched) []int {
	var sizes []int
	buf := make([]byte, 0, 1+transport.StreamHeaderSize)
	for {
		_, payload, ok := s.nextChunk(buf)
		if !ok {
			return sizes
		}
		s.chunkWritten() // the test wire never fails
		sizes = append(sizes, len(payload))
	}
}

// TestSchedCumulativeGrants: the window is CreditWindow minus what is sent
// and not yet acknowledged, and grants are cumulative — the scheduler
// resumes exactly as far as each new counter allows, and a duplicate of a
// grant releases nothing. (The chunking under that window is
// transport.StreamQueue's, tabled in TestStreamQueuePolicy.)
func TestSchedCumulativeGrants(t *testing.T) {
	var drops atomic.Int64
	s := newStreamSched(schedCfg(), &drops)
	s.enqueue(newOutFrame(make([]byte, 400)))
	sum := func(sizes []int) (n int) {
		for _, sz := range sizes {
			n += sz
		}
		return n
	}
	if got := sum(drain(s)); got != 250 {
		t.Fatalf("first window released %d bytes, want 250", got)
	}
	if st := s.stats(); st.CreditsOutstanding != 250 || st.QueuedBytes != 150 {
		t.Fatalf("parked stats %+v", st)
	}
	s.grant(0, 100)
	if got := sum(drain(s)); got != 100 {
		t.Fatalf("after grant(100): released %d bytes, want 100", got)
	}
	s.grant(0, 100)
	if got := drain(s); len(got) != 0 {
		t.Fatalf("duplicate grant released chunks %v", got)
	}
	s.grant(0, 400)
	if got := sum(drain(s)); got != 50 {
		t.Fatalf("final release %d bytes, want 50", got)
	}
	if st := s.stats(); st.QueuedBytes != 0 || st.StreamsActive != 0 || drops.Load() != 0 {
		t.Fatalf("final stats %+v, drops %d", st, drops.Load())
	}
}

// TestSchedGrantRacesCompletion: a grant arriving after the stream it paid
// for already finished (the receiver consumed faster than it granted) must
// not panic, must not create phantom streams, and must leave the full
// window available for the next stream.
func TestSchedGrantRacesCompletion(t *testing.T) {
	var drops atomic.Int64
	s := newStreamSched(schedCfg(), &drops)
	s.enqueue(newOutFrame(make([]byte, 200)))
	if got := drain(s); len(got) != 2 {
		t.Fatalf("chunks %v, want 2", got)
	}
	// The stream is gone; now its grant lands.
	s.grant(0, 200)
	if st := s.stats(); st.CreditsOutstanding != 0 || st.StreamsActive != 0 {
		t.Fatalf("stats after late grant %+v", st)
	}
	// A stale lower grant after a higher one must not shrink credit.
	s.grant(0, 150)
	s.enqueue(newOutFrame(make([]byte, 250)))
	if got := drain(s); len(got) != 3 || got[0]+got[1]+got[2] != 250 {
		t.Fatalf("full window not available after late grants: %v", got)
	}
}

// TestSchedEvictionCountsAsDrop: every stream the park budget costs — the
// evicted ones and a frame refused outright — lands in the peer's drop
// counter, which Runtime.Drops reports.
func TestSchedEvictionCountsAsDrop(t *testing.T) {
	var drops atomic.Int64
	s := newStreamSched(schedCfg(), &drops) // 1000-byte park budget
	for i := 0; i < 3; i++ {
		s.enqueue(newOutFrame(make([]byte, 300)))
	}
	s.enqueue(newOutFrame(make([]byte, 2000))) // evicts all three, then cannot fit itself
	if st := s.stats(); st.Evictions != 4 || drops.Load() != 4 || st.StreamsActive != 0 {
		t.Fatalf("evictions %d drops %d streams %d, want 4/4/0", st.Evictions, drops.Load(), st.StreamsActive)
	}
}

// TestSchedResetConnRewinds: a reconnect must rewind partially sent
// streams to offset zero under a fresh window, so the new connection's
// reassembler sees every stream from its first byte.
func TestSchedResetConnRewinds(t *testing.T) {
	var drops atomic.Int64
	s := newStreamSched(schedCfg(), &drops)
	s.enqueue(newOutFrame(make([]byte, 400)))
	drain(s) // 250 sent, parked
	s.resetConn()
	st := s.stats()
	if st.QueuedBytes != 400 || st.CreditsOutstanding != 0 {
		t.Fatalf("post-reset stats %+v", st)
	}
	buf := make([]byte, 0, 1+transport.StreamHeaderSize)
	body, _, ok := s.nextChunk(buf)
	if !ok {
		t.Fatal("nothing to send after reset")
	}
	hdr, err := transport.ParseStreamHeader(body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Offset != 0 {
		t.Fatalf("first chunk after reset at offset %d, want 0", hdr.Offset)
	}
}

// TestSchedChunksReassemble closes the loop: everything the scheduler
// emits feeds a Reassembler and must rebuild the original frames exactly.
func TestSchedChunksReassemble(t *testing.T) {
	cfg := schedCfg()
	var drops atomic.Int64
	s := newStreamSched(cfg, &drops)
	frames := [][]byte{
		bytes.Repeat([]byte{1}, 450),
		bytes.Repeat([]byte{2}, 99),
		bytes.Repeat([]byte{3}, 301),
	}
	for _, f := range frames {
		s.enqueue(newOutFrame(f))
	}
	asm := transport.NewReassembler(cfg, 1<<20)
	var got [][]byte
	buf := make([]byte, 0, 1+transport.StreamHeaderSize)
	var consumed, granted int64 // cumulative, like a real receiver
	for {
		body, payload, ok := s.nextChunk(buf)
		if !ok {
			if consumed > granted {
				s.grant(0, consumed) // play the receiver: grant everything
				granted = consumed
				continue
			}
			break
		}
		s.chunkWritten()
		hdr, err := transport.ParseStreamHeader(body)
		if err != nil {
			t.Fatal(err)
		}
		complete, err := asm.Add(hdr, len(payload), bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		consumed += int64(len(payload))
		if complete != nil {
			got = append(got, complete)
		}
	}
	if len(got) != len(frames) {
		t.Fatalf("reassembled %d frames, want %d", len(got), len(frames))
	}
	for _, f := range frames {
		found := false
		for _, g := range got {
			if bytes.Equal(f, g) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("frame of %d bytes not reassembled intact", len(f))
		}
	}
}

// BenchmarkStreamSend measures the chunking hot path: enqueue a bulk
// frame, pull every chunk through the scheduler and feed the reassembler,
// with credits granted as consumed — the full streaming overhead minus the
// socket. CI runs this as a smoke test so chunking regressions fail
// loudly.
func BenchmarkStreamSend(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(sizeLabel(size), func(b *testing.B) {
			cfg := transport.StreamConfig{}
			cfg.Normalize()
			var drops atomic.Int64
			s := newStreamSched(cfg, &drops)
			asm := transport.NewReassembler(cfg, 64<<20)
			buf := make([]byte, 0, 1+transport.StreamHeaderSize)
			var src bytes.Reader
			var consumed int64
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The sent frame comes from the pool, as an encoded
				// datablock does, and goes back with its fin chunk; the
				// receiver returns the reassembled one, as releasing the
				// datablock does. Warm, both are reused.
				f := newOutFrame(transport.GetFrame(size))
				s.enqueue(f)
				f.release()
				for {
					body, payload, ok := s.nextChunk(buf)
					if !ok {
						s.grant(0, consumed)
						continue
					}
					hdr, err := transport.ParseStreamHeader(body)
					if err != nil {
						b.Fatal(err)
					}
					consumed += int64(len(payload))
					src.Reset(payload)
					complete, err := asm.Add(hdr, len(payload), &src)
					if err != nil {
						b.Fatal(err)
					}
					s.chunkWritten() // the chunk reached the receiver
					if complete != nil {
						transport.PutFrame(complete)
						break
					}
				}
			}
		})
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "MiB"
	case n >= 1<<10:
		return itoa(n>>10) + "KiB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestFrameReturnedAfterEveryPeerWrote: a broadcast frame is shared by the
// schedulers it was queued to and goes back to the pool only when the last
// of them has written its fin chunk and the emitter has let go; a
// scheduler that evicted it never gives its reference back.
func TestFrameReturnedAfterEveryPeerWrote(t *testing.T) {
	var drops atomic.Int64
	a, b := newStreamSched(schedCfg(), &drops), newStreamSched(schedCfg(), &drops)
	f := newOutFrame(make([]byte, 250))
	a.enqueue(f)
	b.enqueue(f)
	f.release()
	a.grant(0, 1000)
	drain(a)
	if got := f.refs.Load(); got != 1 {
		t.Fatalf("after one peer's fin chunk the frame has %d references, want 1", got)
	}
	b.grant(0, 1000)
	drain(b)
	if got := f.refs.Load(); got != 0 {
		t.Fatalf("after every peer's fin chunk the frame has %d references, want 0", got)
	}

	c := newStreamSched(schedCfg(), &drops) // 1000-byte park budget
	evicted := newOutFrame(make([]byte, 600))
	c.enqueue(evicted)
	evicted.release()
	c.enqueue(newOutFrame(make([]byte, 600))) // evicts the first
	if got := evicted.refs.Load(); got != 1 {
		t.Fatalf("an evicted frame has %d references, want the scheduler's 1 kept (left to the GC)", got)
	}
}

// discardConn is a net.Conn whose writes succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// recordConn is a net.Conn that keeps what is written to it.
type recordConn struct {
	net.Conn
	buf []byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

// TestWireWriterAllocs: the send loop writes a frame — a control frame (a
// vote), a credit grant taken from the mailbox, a chunk's header — from its
// own buffers, and the read loop reads a grant and a chunk's header back
// into its own, with no allocation per frame.
func TestWireWriterAllocs(t *testing.T) {
	w := new(wireWriter)
	conn := new(recordConn)
	p := &peer{grantNotify: make(chan struct{}, 1)}
	grantBuf := make([]byte, 0, grantSize)
	hdrBuf := make([]byte, 0, transport.StreamHeaderSize)
	vote := make([]byte, 120)
	payload := make([]byte, 64<<10)
	rd := new(wireReader)
	var src bytes.Reader
	var consumed int64
	allocs := testing.AllocsPerRun(100, func() {
		conn.buf = conn.buf[:0]
		if err := w.write(conn, frameKindMsg, vote, nil); err != nil {
			t.Fatal(err)
		}
		consumed++
		p.setGrant(1, consumed)
		if err := w.write(conn, frameKindCredit, p.takeGrant(grantBuf), nil); err != nil {
			t.Fatal(err)
		}
		hdr := transport.AppendStreamHeader(hdrBuf[:0], transport.StreamHeader{
			StreamID: 7, Total: uint64(len(payload)), Fin: true,
		})
		if err := w.write(conn, frameKindChunk, hdr, payload); err != nil {
			t.Fatal(err)
		}
		// Read back what follows the vote (reading a whole message
		// allocates its body by design: it passes to the codec).
		src.Reset(conn.buf[5+len(vote):])
		kind, body, _, err := rd.read(&src, maxFrame)
		if err != nil || kind != frameKindCredit ||
			binary.BigEndian.Uint32(body[:4]) != 1 || int64(binary.BigEndian.Uint64(body[4:])) != consumed {
			t.Fatalf("grant read back as kind %d body %x err %v", kind, body, err)
		}
		kind, body, n, err := rd.read(&src, maxFrame)
		if err != nil || kind != frameKindChunk || n != len(payload) || !bytes.Equal(body, hdr) {
			t.Fatalf("chunk read back as kind %d header %x payload %d err %v", kind, body, n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writing three frames and reading two made %.0f allocations", allocs)
	}
	if got := conn.buf[:5]; binary.BigEndian.Uint32(got[:4]) != uint32(1+len(vote)) || got[4] != frameKindMsg {
		t.Fatalf("control frame prefix %x, want length %d and kind %d", got, 1+len(vote), frameKindMsg)
	}
}

// TestSchedFinChunkSurvivesReconnect: a stream whose final chunk was
// dequeued but never confirmed written (the connection died mid-write)
// must be requeued by resetConn and retransmitted from offset zero —
// previously it was silently lost with no drop counted.
func TestSchedFinChunkSurvivesReconnect(t *testing.T) {
	var drops atomic.Int64
	s := newStreamSched(schedCfg(), &drops)
	s.enqueue(newOutFrame(make([]byte, 50))) // single fin chunk
	buf := make([]byte, 0, 1+transport.StreamHeaderSize)
	if _, _, ok := s.nextChunk(buf); !ok {
		t.Fatal("nothing to send")
	}
	// No chunkWritten: the write failed. The stream must still be
	// accounted and survive the reconnect.
	if st := s.stats(); st.StreamsActive != 1 {
		t.Fatalf("un-acked fin chunk not tracked: %+v", st)
	}
	s.resetConn()
	if st := s.stats(); st.StreamsActive != 1 || st.QueuedBytes != 50 {
		t.Fatalf("fin-chunk stream lost across reconnect: %+v", st)
	}
	body, payload, ok := s.nextChunk(buf)
	if !ok {
		t.Fatal("stream not retransmitted after reconnect")
	}
	hdr, err := transport.ParseStreamHeader(body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Offset != 0 || !hdr.Fin || len(payload) != 50 {
		t.Fatalf("retransmission hdr %+v payload %d, want full frame from 0", hdr, len(payload))
	}
	s.chunkWritten() // this time the wire cooperates
	if st := s.stats(); st.StreamsActive != 0 || drops.Load() != 0 {
		t.Fatalf("final stats %+v drops %d", st, drops.Load())
	}
	// A fin chunk that WAS confirmed written must not be requeued.
	s.enqueue(newOutFrame(make([]byte, 50)))
	if _, _, ok := s.nextChunk(buf); !ok {
		t.Fatal("nothing to send")
	}
	s.chunkWritten()
	s.resetConn()
	if st := s.stats(); st.StreamsActive != 0 {
		t.Fatalf("acked stream duplicated across reconnect: %+v", st)
	}
}

// TestSchedStaleEpochGrantIgnored: grants travel on the reverse-direction
// connection, which survives a data-connection reset — a grant carrying
// the dead connection's cumulative counter must not inflate the fresh
// window.
func TestSchedStaleEpochGrantIgnored(t *testing.T) {
	var drops atomic.Int64
	s := newStreamSched(schedCfg(), &drops)
	e1 := s.resetConn()
	s.enqueue(newOutFrame(make([]byte, 400)))
	if got := drain(s); len(got) != 3 {
		t.Fatalf("chunks %v", got)
	}
	// A huge grant from another epoch (in flight across the reconnect).
	s.grant(e1+7, 1<<40)
	if got := drain(s); len(got) != 0 {
		t.Fatalf("stale-epoch grant released chunks %v", got)
	}
	if st := s.stats(); st.CreditsOutstanding != 250 {
		t.Fatalf("stale-epoch grant corrupted the window: %+v", st)
	}
	// The current epoch's grant works.
	s.grant(e1, 250)
	if got := drain(s); len(got) != 2 || got[0]+got[1] != 150 {
		t.Fatalf("current-epoch grant: chunks %v, want the remaining 150", got)
	}
	// After another reconnect, the old epoch's grants are stale too.
	e2 := s.resetConn()
	if e2 == e1 {
		t.Fatal("epoch did not advance on reconnect")
	}
	drain(s) // spend the fresh window
	s.grant(e1, 1<<40)
	if got := drain(s); len(got) != 0 {
		t.Fatalf("previous-epoch grant released chunks %v", got)
	}
}

// TestPeerGrantMailboxCoalesces: the per-peer grant mailbox keeps only
// the newest cumulative grant (a queue slot could be dropped on overflow,
// deadlocking a fully parked sender), replaces it wholesale on a new
// connection epoch, and ignores stale regressions within an epoch.
func TestPeerGrantMailboxCoalesces(t *testing.T) {
	p := &peer{grantNotify: make(chan struct{}, 1)}
	if got := p.takeGrant(nil); got != nil {
		t.Fatalf("empty mailbox yielded %x", got)
	}
	p.setGrant(1, 100)
	p.setGrant(1, 250) // coalesces: only the newest counter matters
	body := p.takeGrant(nil)
	if len(body) != grantSize {
		t.Fatalf("mailbox body %x", body)
	}
	if e := binary.BigEndian.Uint32(body[:4]); e != 1 {
		t.Fatalf("epoch %d, want 1", e)
	}
	if c := binary.BigEndian.Uint64(body[4:]); c != 250 {
		t.Fatalf("consumed %d, want 250 (coalesced)", c)
	}
	if p.takeGrant(nil) != nil {
		t.Fatal("mailbox not drained by takeGrant")
	}
	// Within an epoch the counter only grows: a higher value re-arms the
	// mailbox, a duplicate or regression does not.
	p.setGrant(1, 300)
	if p.takeGrant(nil) == nil {
		t.Fatal("fresh grant lost")
	}
	p.setGrant(1, 200)
	if p.takeGrant(nil) != nil {
		t.Fatal("regressed counter accepted within an epoch")
	}
	// A newer epoch replaces outright, even with a smaller counter.
	p.setGrant(2, 50)
	body = p.takeGrant(nil)
	if body == nil || binary.BigEndian.Uint32(body[:4]) != 2 ||
		binary.BigEndian.Uint64(body[4:]) != 50 {
		t.Fatalf("new-epoch grant body %x", body)
	}
	// An OLDER epoch must not clobber the slot: after a reconnect the old
	// connection's readLoop can linger on kernel-buffered chunks and its
	// late grants would otherwise destroy the new epoch's grant (which
	// the peer would then never re-receive while fully parked).
	p.setGrant(2, 90)
	p.setGrant(1, 1<<40)
	body = p.takeGrant(nil)
	if body == nil || binary.BigEndian.Uint32(body[:4]) != 2 ||
		binary.BigEndian.Uint64(body[4:]) != 90 {
		t.Fatalf("stale-epoch grant clobbered the mailbox: %x", body)
	}
}
