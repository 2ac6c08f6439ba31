// Package tcp hosts an event-driven protocol node (transport.Node) over
// real TCP connections, for deployments and integration tests of the kind
// the paper ran on EC2. Frames are length-prefixed and kind-tagged; each
// replica dials every peer and uses the dialed connection for sending,
// while accepted connections are receive-only, so no connection-ownership
// races exist.
//
// Outbound traffic is scheduled in two lanes per peer, mirroring the
// transport.Sink contract: the control lane (votes, proofs, proposals,
// view-change, checkpoint, retrieval queries) is transmitted strictly ahead
// of the bulk lane (datablocks, retrieval responses), so a queued multi-MiB
// datablock can never head-of-line-block the metadata consensus path. Each
// message's type picks its lane (transport.Policy).
//
// The bulk lane streams: every bulk frame becomes a stream, large frames
// are split into fixed-size chunks (transport.StreamHeader), and the
// per-peer scheduler interleaves chunks fairly across the streams queued to
// that peer. Delivery of a control frame therefore waits at most one chunk,
// even mid-transfer. Instead of a bounded queue that drops on overflow, the
// bulk lane runs credit-based per-peer flow control: the receiver's read
// loop grants cumulative byte credits on the control lane (CreditMsg) as it
// consumes chunks, the sender debits its window per chunk and parks its
// streams at zero credit. A slow peer backpressures its sender instead of
// forcing drops; only when the sender's park budget fills are the oldest
// parked streams evicted (Config.Stream tunes all of this).
//
// Peer identity is announced in a hello frame. The protocol layer's
// signatures authenticate everything consequential (votes, proposals,
// proofs); deployments that also need channel privacy should wrap the
// listener and dialer in TLS.
package tcp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"leopard/internal/codec"
	"leopard/internal/obs"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// Codec converts protocol messages to and from wire frames. It is an alias
// of transport.Codec, whose doc states the ownership contract: Decode may
// retain the frame (zero-copy decode), and this runtime honours that by
// handing Decode only buffers it will never touch again — a fresh
// allocation per whole-message frame, and the reassembler's output buffer
// for streamed frames (chunk payloads are read from the socket straight
// into it, so the reassembled frame is fresh by construction).
type Codec = transport.Codec

// Wire frame kinds. Every frame after the hello is length-prefixed and
// starts with one of these tags.
const (
	// frameKindMsg is a whole codec frame (control lane).
	frameKindMsg = 0x00
	// frameKindChunk is a bulk stream chunk: transport.StreamHeader
	// followed by payload bytes.
	frameKindChunk = 0x01
	// frameKindCredit is a flow-control grant (transport.CreditMsg): a
	// 4-byte connection epoch followed by an 8-byte cumulative count of
	// bulk payload bytes the sender of this frame has consumed from us on
	// that epoch's connection (both big-endian).
	frameKindCredit = 0x02
)

// Config describes one replica's place in the cluster.
type Config struct {
	// Self is this replica's id; Addrs[Self] is the listen address.
	Self types.ReplicaID
	// Addrs maps every replica id to its host:port.
	Addrs []string
	// Codec encodes and decodes protocol messages.
	Codec Codec
	// TickInterval drives the node's timer handler (default 2ms). Both
	// batching decisions, packing a datablock and proposing a BFTblock,
	// are made only on a tick, so a paced request waits for about two
	// tick boundaries between admission and the leader's proposal; a
	// longer tick adds that wait to its latency, a shorter one shrinks
	// batches under load (README, "Batching is clocked by confirmations").
	TickInterval time.Duration
	// DialRetry is the initial reconnect backoff (default 500ms). Each
	// consecutive failure doubles the interval up to DialRetryMax, with
	// jitter added so replicas that lost the same peer at the same moment
	// do not retry in lockstep. A successful connection resets the ladder.
	DialRetry time.Duration
	// DialRetryMax caps the exponential reconnect backoff (default 8s,
	// floored at DialRetry).
	DialRetryMax time.Duration
	// Stream tunes bulk-lane chunking and credit-based flow control; zero
	// fields take the transport package defaults. The bulk lane has no
	// frame queue: it streams under Stream's credit window and park budget.
	Stream transport.StreamConfig
	// Tracer, when set, receives bulk-lane flow-control events (credit
	// parks, park-budget evictions) stamped with the runtime's relative
	// clock (time since Run). Event IDs carry the peer replica id.
	Tracer *obs.Tracer
}

func (c *Config) validate() error {
	if c.Codec == nil {
		return errors.New("tcp: missing codec")
	}
	if int(c.Self) >= len(c.Addrs) {
		return fmt.Errorf("tcp: self id %d outside address list of %d", c.Self, len(c.Addrs))
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 2 * time.Millisecond
	}
	if c.DialRetry <= 0 {
		c.DialRetry = 500 * time.Millisecond
	}
	if c.DialRetryMax <= 0 {
		c.DialRetryMax = 8 * time.Second
	}
	if c.DialRetryMax < c.DialRetry {
		c.DialRetryMax = c.DialRetry
	}
	c.Stream.Normalize()
	return nil
}

const (
	// maxFrame bounds accepted frame sizes, including reassembled stream
	// totals: the codec's own cap on one byte field, so any field that
	// decodes fits a legal frame and the reverse.
	maxFrame = codec.MaxBytesLen
	// controlQueue is the per-peer control-lane queue depth in frames.
	// Control frames are small; the depth is sized for vote bursts at
	// large n. Overflow drops the frame.
	controlQueue = 4096
)

// event is one inbound message awaiting the apply loop.
type event struct {
	from types.ReplicaID
	msg  transport.Message
}

// Runtime hosts a node over TCP. Create with New, start with Run.
type Runtime struct {
	cfg  Config
	node transport.Node

	listener net.Listener
	events   chan event
	// local lets the process inject calls (e.g. client submissions) into
	// the apply loop, keeping the node single-threaded.
	local chan func(now time.Duration, out transport.Sink)

	peers []*peer

	// conns holds every live peer connection, dialed and accepted, so Stop
	// can close them: a read loop blocked on an idle connection notices
	// nothing else. closing (under connMu) makes a connection that
	// completes its dial or accept after Stop be closed at once.
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool

	start   time.Time
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// peer is one outbound connection. The apply loop is the only producer;
// the peer's sendLoop goroutine is the only consumer of the queues, while
// the read loop of the peer's inbound connection feeds credit grants into
// the scheduler.
type peer struct {
	id   types.ReplicaID
	addr string
	// control carries kind-prefixed control-lane wire bodies,
	// transmitted strictly before bulk chunks.
	control chan []byte
	// sched streams the bulk lane under credit flow control.
	sched *streamSched
	drops atomic.Int64

	// The grant mailbox holds the newest credit grant owed to this peer.
	// It is a one-slot coalescing store rather than a queue entry:
	// grants are cumulative, so only the latest matters, and a mailbox
	// can never be lost to queue overflow — which would deadlock a
	// fully parked sender, since no further chunks arrive to trigger
	// another grant. The read loop fills it; the send loop drains it
	// with control-lane priority.
	grantMu     sync.Mutex
	grantEpoch  uint32
	grantVal    int64
	grantDirty  bool
	grantNotify chan struct{}
}

// setGrant records the newest cumulative grant for this peer. A newer
// connection epoch replaces the slot outright; within an epoch the
// counter only grows. An older epoch is discarded: after a reconnect the
// old connection's readLoop can linger, draining kernel-buffered chunks
// concurrently with the new one, and its late grants must not clobber
// the new epoch's — the peer would discard the stale epoch on arrival
// and, if fully parked, never receive another grant.
func (p *peer) setGrant(epoch uint32, consumed int64) {
	p.grantMu.Lock()
	newer := int32(epoch-p.grantEpoch) > 0 // wraparound-safe
	if newer || (epoch == p.grantEpoch && consumed > p.grantVal) {
		p.grantEpoch = epoch
		p.grantVal = consumed
		p.grantDirty = true
	}
	p.grantMu.Unlock()
	select {
	case p.grantNotify <- struct{}{}:
	default:
	}
}

// takeGrant drains the mailbox into a wire body, or returns nil.
func (p *peer) takeGrant() []byte {
	p.grantMu.Lock()
	defer p.grantMu.Unlock()
	if !p.grantDirty {
		return nil
	}
	p.grantDirty = false
	body := make([]byte, 1+4+8)
	body[0] = frameKindCredit
	binary.BigEndian.PutUint32(body[1:5], p.grantEpoch)
	binary.BigEndian.PutUint64(body[5:], uint64(p.grantVal))
	return body
}

// New creates a runtime for node. Call Run to start serving.
func New(cfg Config, node transport.Node) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:  cfg,
		node: node,
		// The event queue absorbs receive bursts from n-1 reader
		// goroutines feeding one apply loop; its size bounds memory, and
		// readers block (applying TCP backpressure, which in turn stalls
		// credit grants) when it fills.
		events: make(chan event, 4096),
		local:  make(chan func(now time.Duration, out transport.Sink), 256),
		conns:  make(map[net.Conn]struct{}),
		stop:   make(chan struct{}),
	}
	for id, addr := range cfg.Addrs {
		if types.ReplicaID(id) == cfg.Self {
			r.peers = append(r.peers, nil)
			continue
		}
		p := &peer{
			id:          types.ReplicaID(id),
			addr:        addr,
			control:     make(chan []byte, controlQueue),
			grantNotify: make(chan struct{}, 1),
		}
		p.sched = newStreamSched(cfg.Stream, &p.drops)
		if cfg.Tracer != nil {
			pid := p.id
			p.sched.trace = func(kind obs.EventKind, aux int64) {
				cfg.Tracer.Emit(r.now(), kind, 0, uint64(pid), aux)
			}
		}
		r.peers = append(r.peers, p)
	}
	return r, nil
}

// Run listens, connects to peers and drives the node until ctx is
// cancelled or Stop is called.
func (r *Runtime) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", r.cfg.Addrs[r.cfg.Self])
	if err != nil {
		// Close r.stop so Done() fires and callers parked on an Inject
		// reply (the documented wait pattern) unblock.
		r.Stop()
		return fmt.Errorf("tcp: listen: %w", err)
	}
	r.listener = ln
	r.start = time.Now()

	for _, p := range r.peers {
		if p == nil {
			continue
		}
		p := p
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.sendLoop(p)
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.acceptLoop()
	}()

	err = r.applyLoop(ctx)
	r.Stop()
	return err
}

// Stop shuts the runtime down and waits for its goroutines. It closes the
// listener and every live peer connection, so it returns promptly even when
// the peers are idle.
func (r *Runtime) Stop() {
	r.stopped.Do(func() {
		close(r.stop)
		if r.listener != nil {
			r.listener.Close()
		}
		r.connMu.Lock()
		r.closing = true
		for c := range r.conns {
			c.Close()
		}
		r.connMu.Unlock()
	})
	r.wg.Wait()
}

// track registers a live connection for Stop to close; false means the
// runtime is already stopping and c has been closed.
func (r *Runtime) track(c net.Conn) bool {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.closing {
		c.Close()
		return false
	}
	r.conns[c] = struct{}{}
	return true
}

// drop closes a tracked connection and forgets it.
func (r *Runtime) drop(c net.Conn) {
	c.Close()
	r.connMu.Lock()
	delete(r.conns, c)
	r.connMu.Unlock()
}

// now returns the runtime-relative monotonic time handed to the node.
func (r *Runtime) now() time.Duration { return time.Since(r.start) }

// Done is closed when the runtime stops. Callers waiting on a reply from
// an Inject closure must select on it: a closure that was enqueued but not
// yet run when the runtime stopped will never execute.
func (r *Runtime) Done() <-chan struct{} { return r.stop }

// Drops returns the number of outbound frames lost toward peer id
// (diagnostics; zero for the self slot): control-queue overflow, plus
// bulk-stream evictions when the park budget filled. Bulk frames are never
// dropped merely because a queue was momentarily full — they park under
// flow control — so a nonzero bulk component here means a peer stalled
// past the park budget.
func (r *Runtime) Drops(id types.ReplicaID) int64 {
	if int(id) >= len(r.peers) || r.peers[id] == nil {
		return 0
	}
	return r.peers[id].drops.Load()
}

// StreamTotals aggregates the bulk-lane flow-control counters across all
// peers: total parked bytes, credits in flight and active streams, with
// the peak as the max over peers.
func (r *Runtime) StreamTotals() transport.StreamStats {
	var total transport.StreamStats
	for _, p := range r.peers {
		if p == nil {
			continue
		}
		total.Accumulate(p.sched.stats())
	}
	return total
}

// Inject runs fn on the apply loop; fn may call into the node safely and
// push any resulting envelopes into the provided sink. Used for client
// submissions and for snapshotting node state (Stats, ExecutedTo) under
// the apply loop's serialization — the node is single-goroutine, so any
// off-loop read must go through here.
func (r *Runtime) Inject(fn func(now time.Duration, out transport.Sink)) error {
	select {
	case r.local <- fn:
		return nil
	case <-r.stop:
		return errors.New("tcp: runtime stopped")
	}
}

// applyLoop is the single goroutine that touches the node.
func (r *Runtime) applyLoop(ctx context.Context) error {
	sink := rtSink{r}
	r.node.Start(r.now(), sink)
	ticker := time.NewTicker(r.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.stop:
			return nil
		case ev := <-r.events:
			r.node.Deliver(r.now(), ev.from, ev.msg, sink)
		case fn := <-r.local:
			fn(r.now(), sink)
		case <-ticker.C:
			r.node.Tick(r.now(), sink)
		}
	}
}

// rtSink is the transport.Sink handed to the node: it encodes each pushed
// envelope once and routes the frame to the destination peers' lanes.
type rtSink struct{ r *Runtime }

// Send implements transport.Sink.
func (s rtSink) Send(env transport.Envelope) { s.r.emit(env) }

// Broadcast implements transport.Sink.
func (s rtSink) Broadcast(msg transport.Message) {
	s.r.emit(transport.Envelope{Broadcast: true, Msg: msg})
}

// emit encodes and enqueues one outbound envelope onto its lane.
func (r *Runtime) emit(env transport.Envelope) {
	if env.Msg == nil {
		return
	}
	frame, err := r.cfg.Codec.Encode(env.Msg)
	if err != nil || len(frame) == 0 {
		// Unencodable (or empty-frame) message: drop, protocol will
		// recover.
		return
	}
	lane := env.Msg.Policy().Lane()
	var body []byte
	if lane != transport.LaneBulk {
		// Whole-message wire body, shared read-only across the fan-out.
		body = append(make([]byte, 0, 1+len(frame)), frameKindMsg)
		body = append(body, frame...)
	}
	if env.Broadcast {
		for _, p := range r.peers {
			if p != nil {
				p.send(frame, body, lane)
			}
		}
		return
	}
	if int(env.To) < len(r.peers) {
		if p := r.peers[env.To]; p != nil {
			p.send(frame, body, lane)
		}
	}
}

// send routes one encoded frame onto the peer's lane without blocking the
// apply loop. Bulk frames become streams under flow control; control
// frames ride a bounded queue whose overflow drops the frame.
func (p *peer) send(frame, body []byte, lane transport.Lane) {
	if lane == transport.LaneBulk {
		p.sched.enqueue(frame)
		return
	}
	select {
	case p.control <- body:
	default:
		p.drops.Add(1)
	}
}

// sendCredit posts a flow-control grant to peer id's mailbox: the
// cumulative consumed-bytes counter of the inbound connection with the
// given epoch. The send loop transmits it with control-lane priority.
func (r *Runtime) sendCredit(id types.ReplicaID, epoch uint32, consumed int64) {
	if int(id) >= len(r.peers) || r.peers[id] == nil {
		return
	}
	r.peers[id].setGrant(epoch, consumed)
}

// applyCredit feeds a received grant into the scheduler for peer id.
func (r *Runtime) applyCredit(id types.ReplicaID, epoch uint32, consumed int64) {
	if int(id) >= len(r.peers) || r.peers[id] == nil {
		return
	}
	r.peers[id].sched.grant(epoch, consumed)
}

// next blocks until the peer has something to transmit, with strict lane
// priority: a pending credit grant and anything in the control queue go
// first; the bulk scheduler is consulted only while those are empty, and
// hands out one chunk at a time, so a control frame enqueued mid-stream
// waits at most one chunk write. Parked bulk (zero credit) does not
// busy-wait: the send loop sleeps until a credit grant or a new stream
// signals the scheduler. Returns ok=false when the runtime stops.
func (r *Runtime) next(p *peer, hdrBuf []byte) (msg, chunkBody, chunkPayload []byte, ok bool) {
	for {
		if body := p.takeGrant(); body != nil {
			return body, nil, nil, true
		}
		select {
		case f := <-p.control:
			return f, nil, nil, true
		default:
		}
		if body, payload, ok := p.sched.nextChunk(hdrBuf); ok {
			return nil, body, payload, true
		}
		select {
		case <-r.stop:
			return nil, nil, nil, false
		case f := <-p.control:
			return f, nil, nil, true
		case <-p.sched.notify:
		case <-p.grantNotify:
		}
	}
}

// nextDialDelay computes one step of the jittered exponential dial
// backoff: the returned delay is cur stretched by up to half of itself
// (the jitter that staggers replicas retrying a dead peer in unison),
// and next is the doubled interval capped at max.
func nextDialDelay(cur, max time.Duration, rng *rand.Rand) (delay, next time.Duration) {
	delay = cur
	if half := cur / 2; half > 0 {
		delay += time.Duration(rng.Int63n(int64(half)))
	}
	next = 2 * cur
	if next > max {
		next = max
	}
	return delay, next
}

// sendLoop dials the peer (with retry) and writes wire frames in lane
// order. On reconnect the stream scheduler is rewound (resetConn, which
// also advances the connection epoch announced in the hello): the new
// connection's receiver has a fresh reassembler and a fresh credit
// window, so partially sent streams — including one whose fin chunk died
// with the old connection — restart from offset zero, while an
// interrupted control frame is retransmitted as-is.
func (r *Runtime) sendLoop(p *peer) {
	var conn net.Conn
	var pending []byte // control frame to retransmit after a reconnect
	hdrBuf := make([]byte, 0, 1+transport.StreamHeaderSize)
	hangUp := func() {
		if conn != nil {
			r.drop(conn)
			conn = nil
		}
	}
	defer hangUp()
	// Per-peer jitter stream: mixing the peer id into the seed keeps the
	// n-1 send loops of one replica off each other's schedule too.
	rng := rand.New(rand.NewSource((int64(r.cfg.Self)+1)*31 + int64(p.id)))
	connect := func() net.Conn {
		// Each connect starts the ladder at DialRetry: a successful hello
		// returns from here, so the next outage begins fresh.
		cur := r.cfg.DialRetry
		for {
			select {
			case <-r.stop:
				return nil
			default:
			}
			c, err := net.DialTimeout("tcp", p.addr, 2*time.Second)
			if err == nil {
				if !r.track(c) {
					return nil
				}
				// Rewind the scheduler before the hello so the epoch the
				// hello announces is the one this connection's grants
				// must carry.
				if err := writeHello(c, r.cfg.Self, p.sched.resetConn()); err == nil {
					return c
				}
				r.drop(c)
			}
			var delay time.Duration
			delay, cur = nextDialDelay(cur, r.cfg.DialRetryMax, rng)
			select {
			case <-r.stop:
				return nil
			case <-time.After(delay):
			}
		}
	}
	for {
		if conn == nil {
			conn = connect()
			if conn == nil {
				return
			}
		}
		if pending != nil {
			if err := writeWireFrame(conn, pending, nil); err != nil {
				hangUp()
				continue
			}
			pending = nil
		}
		msg, chunkBody, chunkPayload, ok := r.next(p, hdrBuf)
		if !ok {
			return
		}
		var err error
		if msg != nil {
			err = writeWireFrame(conn, msg, nil)
			if err != nil {
				pending = msg // resend the control frame on the new conn
			}
		} else {
			err = writeWireFrame(conn, chunkBody, chunkPayload)
			if err == nil {
				p.sched.chunkWritten()
			}
			// A failed chunk is abandoned: resetConn rewinds its stream,
			// including a fin chunk's stream parked in the sending slot.
		}
		if err != nil {
			hangUp()
		}
	}
}

// acceptLoop receives connections and spawns readers.
func (r *Runtime) acceptLoop() {
	for {
		conn, err := r.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !r.track(conn) {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.drop(conn)
			r.readLoop(conn)
		}()
	}
}

// readLoop validates the hello and forwards frames to the apply loop. It
// owns the connection's stream reassembler, which reads each chunk's
// payload from the socket into its frame, and the receive half of flow
// control: consumed chunk bytes accumulate into cumulative credit grants
// flushed at the grant threshold. Any stream-protocol violation (malformed
// header, overlapping offsets, oversized totals, too many streams) drops
// the connection — loud failure, never resynchronization.
func (r *Runtime) readLoop(conn net.Conn) {
	from, epoch, err := readHello(conn)
	if err != nil || int(from) >= len(r.cfg.Addrs) || from == r.cfg.Self {
		return
	}
	asm := transport.NewReassembler(r.cfg.Stream, maxFrame)
	var chunk [transport.StreamHeaderSize]byte
	var consumed, granted int64
	deliver := func(frame []byte) bool {
		msg, err := r.cfg.Codec.Decode(frame)
		if err != nil {
			return false // protocol violation: drop the connection
		}
		select {
		case r.events <- event{from: from, msg: msg}:
			return true
		case <-r.stop:
			return false
		}
	}
	for {
		kind, frame, n, err := readWireFrame(conn, maxFrame, &chunk)
		if err != nil {
			return
		}
		switch kind {
		case frameKindMsg:
			if !deliver(frame) {
				return
			}
		case frameKindChunk:
			hdr, err := transport.ParseStreamHeader(frame)
			if err != nil {
				return
			}
			complete, err := asm.Add(hdr, n, conn)
			if err != nil {
				return
			}
			if complete != nil && !deliver(complete) {
				return
			}
			// Credit the payload at receipt: the window then bounds the
			// bytes parked in partial streams plus the wire, and a stream
			// larger than the window still completes. When the apply loop
			// stalls, the events queue fills, this loop blocks in deliver,
			// grants stop, and the sender parks — backpressure end to end.
			consumed += int64(n)
			if consumed-granted >= r.cfg.Stream.GrantThreshold() {
				r.sendCredit(from, epoch, consumed)
				granted = consumed
			}
		case frameKindCredit:
			if len(frame) != 12 {
				return
			}
			r.applyCredit(from,
				binary.BigEndian.Uint32(frame[:4]),
				int64(binary.BigEndian.Uint64(frame[4:])))
		default:
			return // unknown frame kind: protocol violation
		}
	}
}

// writeHello announces the dialer's replica id and the connection epoch
// its credit grants must carry (see streamSched.epoch).
func writeHello(conn net.Conn, self types.ReplicaID, epoch uint32) error {
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(self))
	binary.BigEndian.PutUint32(buf[4:], epoch)
	_, err := conn.Write(buf[:])
	return err
}

func readHello(conn net.Conn) (types.ReplicaID, uint32, error) {
	var buf [8]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return 0, 0, err
	}
	return types.ReplicaID(binary.BigEndian.Uint32(buf[:4])),
		binary.BigEndian.Uint32(buf[4:]), nil
}

// writeWireFrame writes one frame: 4-byte big-endian length of
// body+payload, then body (which starts with the frame kind), then the
// optional payload. Small bodies (the chunk kind+header prefix, credit
// grants, little control frames) are coalesced with the length prefix
// into one write; large bodies — a whole-message frame can be megabytes —
// are written in place, never copied.
func writeWireFrame(conn net.Conn, body, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)+len(payload)))
	if len(body) <= 512 {
		head := make([]byte, 0, 4+len(body))
		head = append(head, hdr[:]...)
		head = append(head, body...)
		if _, err := conn.Write(head); err != nil {
			return err
		}
	} else {
		if _, err := conn.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := conn.Write(body); err != nil {
			return err
		}
	}
	if len(payload) > 0 {
		if _, err := conn.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readWireFrame reads one frame and returns its kind and the bytes after
// the kind tag. Whole-message frames (frameKindMsg) are read into a fresh
// allocation whose ownership transfers to the codec's Decode (the
// transport.Codec zero-copy contract — do not pool those). Of a chunk
// frame it reads only the stream header, into *chunk, and returns it with
// the length n of the payload that follows on conn, which the caller reads
// in place (Reassembler.Add).
func readWireFrame(conn net.Conn, max int, chunk *[transport.StreamHeaderSize]byte) (kind byte, body []byte, n int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	size := int(binary.BigEndian.Uint32(hdr[:4]))
	if size > max {
		return 0, nil, 0, fmt.Errorf("tcp: frame of %d exceeds limit %d", size, max)
	}
	if size < 1 {
		return 0, nil, 0, errors.New("tcp: empty frame")
	}
	kind = hdr[4]
	size-- // remaining body after the kind tag
	if kind == frameKindChunk {
		if size < len(chunk) {
			return 0, nil, 0, fmt.Errorf("%w: %d bytes", transport.ErrStreamHeader, size)
		}
		body, n = chunk[:], size-len(chunk)
	} else {
		body = make([]byte, size)
	}
	if _, err := io.ReadFull(conn, body); err != nil {
		return 0, nil, 0, err
	}
	return kind, body, n, nil
}
