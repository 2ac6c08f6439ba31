package transport_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"leopard/internal/transport"
)

// chunkPlan is one pending chunk of a simulated sender.
type chunkPlan struct {
	hdr     transport.StreamHeader
	payload []byte
}

// planStream splits payload into in-order chunks with random sizes.
func planStream(rng *rand.Rand, id uint64, payload []byte) []chunkPlan {
	var plan []chunkPlan
	total := uint64(len(payload))
	off := 0
	for off < len(payload) {
		n := 1 + rng.Intn(len(payload)-off)
		if rng.Intn(4) == 0 {
			n = len(payload) - off // occasional jumbo final chunk
		}
		end := off + n
		plan = append(plan, chunkPlan{
			hdr: transport.StreamHeader{
				StreamID: id,
				Offset:   uint64(off),
				Total:    total,
				Fin:      end == len(payload),
			},
			payload: payload[off:end],
		})
		off = end
	}
	return plan
}

// TestStreamReassemblyProperty drives >=3 concurrent streams of random
// payloads through the reassembler with random chunk sizes and a random
// cross-stream interleaving, asserting every stream reassembles to exactly
// its original payload. This is the sender/receiver contract the TCP
// runtime and simnet both build on.
func TestStreamReassemblyProperty(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		nStreams := 3 + rng.Intn(3)
		want := make(map[uint64][]byte, nStreams)
		pending := make([][]chunkPlan, nStreams)
		for i := 0; i < nStreams; i++ {
			payload := make([]byte, 1+rng.Intn(4096))
			rng.Read(payload)
			id := uint64(i)
			want[id] = payload
			pending[i] = planStream(rng, id, payload)
		}
		asm := transport.NewReassembler(transport.StreamConfig{}, 1<<20)
		got := make(map[uint64][]byte)
		for remaining := nStreams; remaining > 0; {
			// Random interleaving: pick any stream with chunks left and
			// feed its next in-order chunk.
			i := rng.Intn(nStreams)
			if len(pending[i]) == 0 {
				continue
			}
			c := pending[i][0]
			pending[i] = pending[i][1:]
			complete, err := asm.Add(c.hdr, len(c.payload), bytes.NewReader(c.payload))
			if err != nil {
				t.Fatalf("iter %d: Add(stream %d off %d): %v", iter, c.hdr.StreamID, c.hdr.Offset, err)
			}
			if c.hdr.Fin {
				if complete == nil {
					t.Fatalf("iter %d: fin chunk of stream %d did not complete", iter, c.hdr.StreamID)
				}
				got[c.hdr.StreamID] = complete
				remaining--
			} else if complete != nil {
				t.Fatalf("iter %d: non-fin chunk completed stream %d", iter, c.hdr.StreamID)
			}
		}
		for id, payload := range want {
			if !bytes.Equal(got[id], payload) {
				t.Fatalf("iter %d: stream %d reassembled %d bytes, want %d", iter, id, len(got[id]), len(payload))
			}
		}
		if asm.Streams() != 0 || asm.Buffered() != 0 {
			t.Fatalf("iter %d: reassembler retained %d streams / %d bytes", iter, asm.Streams(), asm.Buffered())
		}
	}
}

// TestStreamReassemblyViolations tables the loud-failure paths: every
// malformed sequence must return an error, never silently resync.
func TestStreamReassemblyViolations(t *testing.T) {
	hdr := func(id, off, total uint64, fin bool) transport.StreamHeader {
		return transport.StreamHeader{StreamID: id, Offset: off, Total: total, Fin: fin}
	}
	pay := func(n int) []byte { return make([]byte, n) }
	cases := []struct {
		name  string
		feed  []chunkPlan
		fails int // index of the chunk that must error
	}{
		{"zero total", []chunkPlan{{hdr(1, 0, 0, true), pay(1)}}, 0},
		{"oversized total", []chunkPlan{{hdr(1, 0, 1<<30, false), pay(8)}}, 0},
		{"empty chunk", []chunkPlan{{hdr(1, 0, 8, false), nil}}, 0},
		{"chunk past total", []chunkPlan{{hdr(1, 0, 4, true), pay(8)}}, 0},
		{"offset wraparound", []chunkPlan{{hdr(1, ^uint64(0)-1, 8, true), pay(4)}}, 0},
		{"new stream mid-offset", []chunkPlan{{hdr(1, 4, 8, true), pay(4)}}, 0},
		{"gap", []chunkPlan{{hdr(1, 0, 8, false), pay(2)}, {hdr(1, 4, 8, true), pay(4)}}, 1},
		{"overlap", []chunkPlan{{hdr(1, 0, 8, false), pay(4)}, {hdr(1, 2, 8, false), pay(2)}}, 1},
		{"duplicate chunk", []chunkPlan{{hdr(1, 0, 8, false), pay(4)}, {hdr(1, 0, 8, false), pay(4)}}, 1},
		{"total changed", []chunkPlan{{hdr(1, 0, 8, false), pay(4)}, {hdr(1, 4, 12, false), pay(4)}}, 1},
		{"early fin", []chunkPlan{{hdr(1, 0, 8, true), pay(4)}}, 0},
		{"missing fin", []chunkPlan{{hdr(1, 0, 8, false), pay(8)}}, 0},
		{"duplicated fin", []chunkPlan{
			{hdr(1, 0, 8, true), pay(8)},
			{hdr(1, 0, 8, true), pay(8)}, // stream 1 is gone; a "new" stream 1 completing again is fine…
			{hdr(1, 8, 8, true), pay(1)}, // …but a trailing fin beyond it must fail
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asm := transport.NewReassembler(transport.StreamConfig{}, 1<<20)
			for i, c := range tc.feed {
				src := bytes.NewReader(c.payload)
				_, err := asm.Add(c.hdr, len(c.payload), src)
				if i == tc.fails {
					if err == nil {
						t.Fatalf("chunk %d accepted, want error", i)
					}
					if src.Len() != len(c.payload) {
						t.Fatalf("chunk %d: %d payload bytes read before the violation was found", i, len(c.payload)-src.Len())
					}
					return
				}
				if err != nil {
					t.Fatalf("chunk %d: unexpected error %v", i, err)
				}
			}
		})
	}
}

// TestStreamReassemblyStreamCap: more concurrent partial streams than
// MaxStreams is a protocol violation.
func TestStreamReassemblyStreamCap(t *testing.T) {
	cfg := transport.StreamConfig{MaxStreams: 2}
	asm := transport.NewReassembler(cfg, 1<<20)
	for id := uint64(0); id < 2; id++ {
		if _, err := asm.Add(transport.StreamHeader{StreamID: id, Total: 8}, 4, bytes.NewReader(make([]byte, 4))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := asm.Add(transport.StreamHeader{StreamID: 9, Total: 8}, 4, bytes.NewReader(make([]byte, 4))); err == nil {
		t.Fatal("third concurrent stream accepted over MaxStreams=2")
	}
}

// TestStreamHeaderRoundTrip pins the wire layout.
func TestStreamHeaderRoundTrip(t *testing.T) {
	in := transport.StreamHeader{StreamID: 7, Offset: 1 << 40, Total: 1<<40 + 9, Fin: true}
	frame := transport.AppendStreamHeader(nil, in)
	if len(frame) != transport.StreamHeaderSize {
		t.Fatalf("encoded header is %d bytes, want %d", len(frame), transport.StreamHeaderSize)
	}
	out, err := transport.ParseStreamHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	if _, err := transport.ParseStreamHeader(frame[:10]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := transport.ParseStreamHeader(append(frame, 0xAA)); err == nil {
		t.Fatal("header with trailing bytes accepted")
	}
	bad := transport.AppendStreamHeader(nil, in)
	bad[24] |= 0x80 // unknown flag bit
	if _, err := transport.ParseStreamHeader(bad); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
}

// TestChunkLenPolicy pins the shared chunking function both transports
// split with.
func TestChunkLenPolicy(t *testing.T) {
	cfg := transport.StreamConfig{ChunkSize: 100, StreamThreshold: 300}
	cfg.Normalize()
	if got := cfg.ChunkLen(300, 0); got != 300 {
		t.Fatalf("frame at threshold split: chunk %d, want 300", got)
	}
	if got := cfg.ChunkLen(301, 0); got != 100 {
		t.Fatalf("frame above threshold: first chunk %d, want 100", got)
	}
	if got := cfg.ChunkLen(301, 300); got != 1 {
		t.Fatalf("final remainder chunk %d, want 1", got)
	}
}

// FuzzStreamReassemble feeds arbitrary framed chunk sequences to the
// reassembler: it must never panic, never complete a frame whose length
// differs from the advertised total, never retain more than MaxStreams
// partial streams, and never grow on a failed chunk. Input format: repeated
// [2-byte big-endian frame length | frame], each frame a chunk header and
// a payload that Add reads from the rest of the input, as the TCP runtime
// reads it from the socket: a frame cut short by the end of the input is a
// short read.
func FuzzStreamReassemble(f *testing.F) {
	seed := func(chunks ...chunkPlan) []byte {
		var buf []byte
		for _, c := range chunks {
			frame := transport.AppendStreamHeader(nil, c.hdr)
			frame = append(frame, c.payload...)
			var ln [2]byte
			binary.BigEndian.PutUint16(ln[:], uint16(len(frame)))
			buf = append(buf, ln[:]...)
			buf = append(buf, frame...)
		}
		return buf
	}
	f.Add(seed(chunkPlan{transport.StreamHeader{StreamID: 1, Total: 3, Fin: true}, []byte("abc")}))
	f.Add(seed(
		chunkPlan{transport.StreamHeader{StreamID: 1, Total: 4}, []byte("ab")},
		chunkPlan{transport.StreamHeader{StreamID: 2, Total: 2, Fin: true}, []byte("xy")},
		chunkPlan{transport.StreamHeader{StreamID: 1, Offset: 2, Total: 4, Fin: true}, []byte("cd")},
	))
	// Malformed seeds: overlapping offsets, oversized total, dup fin.
	f.Add(seed(
		chunkPlan{transport.StreamHeader{StreamID: 1, Total: 8}, []byte("abcd")},
		chunkPlan{transport.StreamHeader{StreamID: 1, Offset: 2, Total: 8}, []byte("cd")},
	))
	f.Add(seed(chunkPlan{transport.StreamHeader{StreamID: 1, Total: 1 << 62, Fin: false}, []byte("a")}))
	f.Add(seed(
		chunkPlan{transport.StreamHeader{StreamID: 1, Total: 1, Fin: true}, []byte("a")},
		chunkPlan{transport.StreamHeader{StreamID: 1, Offset: 1, Total: 1, Fin: true}, []byte("a")},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxTotal = 1 << 16
		cfg := transport.StreamConfig{MaxStreams: 4}
		asm := transport.NewReassembler(cfg, maxTotal)
		src := bytes.NewReader(data)
		skip := func(n int) bool {
			_, err := io.CopyN(io.Discard, src, int64(n))
			return err == nil
		}
		var ln [2]byte
		var chunk [transport.StreamHeaderSize]byte
		for {
			if _, err := io.ReadFull(src, ln[:]); err != nil {
				return
			}
			n := int(binary.BigEndian.Uint16(ln[:]))
			if n < len(chunk) {
				if !skip(n) {
					return
				}
				continue // malformed header: a transport drops the peer
			}
			if _, err := io.ReadFull(src, chunk[:]); err != nil {
				return
			}
			hdr, err := transport.ParseStreamHeader(chunk[:])
			if err != nil {
				if !skip(n - len(chunk)) {
					return
				}
				continue
			}
			streams, buffered := asm.Streams(), asm.Buffered()
			complete, err := asm.Add(hdr, n-len(chunk), src)
			if err != nil {
				if asm.Streams() > streams || asm.Buffered() > buffered {
					t.Fatalf("failed chunk grew the reassembler: %d→%d streams, %d→%d bytes",
						streams, asm.Streams(), buffered, asm.Buffered())
				}
				return // loud failure: the connection dies here
			}
			if complete != nil && uint64(len(complete)) != hdr.Total {
				t.Fatalf("completed %d bytes, advertised total %d", len(complete), hdr.Total)
			}
			if asm.Streams() > 4 {
				t.Fatalf("%d partial streams retained over cap 4", asm.Streams())
			}
			if asm.Buffered() > 4*maxTotal {
				t.Fatalf("buffered %d bytes over bound", asm.Buffered())
			}
		}
	})
}

// TestStreamReassemblyShortRead: a source that ends before the chunk's n
// bytes fails the chunk and leaves no partial stream behind, whether the
// chunk opened its stream or continued one.
func TestStreamReassemblyShortRead(t *testing.T) {
	asm := transport.NewReassembler(transport.StreamConfig{}, 1<<20)
	if _, err := asm.Add(transport.StreamHeader{StreamID: 1, Total: 8}, 4, bytes.NewReader([]byte("ab"))); err == nil {
		t.Fatal("short read on a stream's first chunk accepted")
	}
	if asm.Streams() != 0 || asm.Buffered() != 0 {
		t.Fatalf("short first chunk left %d streams / %d bytes", asm.Streams(), asm.Buffered())
	}
	if _, err := asm.Add(transport.StreamHeader{StreamID: 2, Total: 8}, 4, bytes.NewReader([]byte("abcd"))); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Add(transport.StreamHeader{StreamID: 2, Offset: 4, Total: 8, Fin: true}, 4, bytes.NewReader(nil)); err == nil {
		t.Fatal("short read on a stream's final chunk accepted")
	}
	if asm.Streams() != 0 || asm.Buffered() != 0 {
		t.Fatalf("short final chunk left %d streams / %d bytes", asm.Streams(), asm.Buffered())
	}
}

// TestStreamQueuePolicy tables the send-side bulk-lane policy that the TCP
// runtime's per-peer scheduler and the simulator's per-pair flow both run:
// each case is a script of pushes, rewinds and credit-limited drains against
// one queue (100-byte chunks, 1000-byte park budget, 4 interleaved streams
// unless the case says otherwise). Streams are tagged a, b, c… in the order
// the case admits them; a drained chunk prints as tag:offset+len, with "!"
// on the chunk that ends its stream.
func TestStreamQueuePolicy(t *testing.T) {
	type step struct {
		push      []int // stream sizes admitted, in order
		pushFront int   // size of a stream put back at the head (0: none)
		rewind    bool
		credit    int64  // then Next until this much credit is spent
		want      string // chunks handed out by the drain
		queued    int64  // stats after the step
		streams   int64
		evicts    int64
	}
	cases := []struct {
		name       string
		maxStreams int
		steps      []step
		peak       int64
	}{
		{
			name: "debit, park at zero credit, resume as far as each grant allows",
			steps: []step{
				// The last 50 bytes of credit buy a partial chunk rather
				// than waiting for a full chunk's worth.
				{push: []int{400}, credit: 250, want: "a:0+100 a:100+100 a:200+50", queued: 150, streams: 1},
				{credit: 0, want: "", queued: 150, streams: 1},
				{credit: 100, want: "a:250+100", queued: 50, streams: 1},
				{credit: 1000, want: "a:350+50!"},
			},
			peak: 400,
		},
		{
			name: "round-robin interleaves streams and lets the small one finish first",
			steps: []step{
				{push: []int{500, 150}, credit: 1 << 20,
					want: "a:0+100 b:0+100 a:100+100 b:100+50! a:200+100 a:300+100 a:400+100!"},
			},
			peak: 650,
		},
		{
			name:       "streams past MaxStreams wait FIFO behind the active set",
			maxStreams: 2,
			steps: []step{
				{push: []int{200, 200, 100}, credit: 1 << 20,
					want: "a:0+100 b:0+100 a:100+100! b:100+100! c:0+100!"},
			},
			peak: 500,
		},
		{
			name: "a peer that never grants: oldest unstarted streams are evicted, a started one never",
			steps: []step{
				{push: []int{400}, credit: 250, want: "a:0+100 a:100+100 a:200+50", queued: 150, streams: 1},
				{push: []int{300, 300}, queued: 750, streams: 3},
				// 300 more would pass the budget: b, the oldest unstarted
				// stream, goes; a is mid-transmission and stays.
				{push: []int{300}, queued: 750, streams: 3, evicts: 1},
				// A frame larger than the whole budget can never fit: c and
				// d are evicted for it, then it is dropped itself.
				{push: []int{2000}, queued: 150, streams: 1, evicts: 4},
				{credit: 1 << 20, want: "a:250+100 a:350+50!", evicts: 4},
			},
			peak: 750,
		},
		{
			name: "eviction keeps the newer data",
			steps: []step{
				{push: []int{400}, credit: 250, want: "a:0+100 a:100+100 a:200+50", queued: 150, streams: 1},
				{push: []int{300, 300, 300}, queued: 750, streams: 3, evicts: 1},
				{credit: 1 << 20, evicts: 1,
					want: "a:250+100 c:0+100 d:0+100 a:350+50! c:100+100 d:100+100 c:200+100! d:200+100!"},
			},
			peak: 750,
		},
		{
			name: "rewind restarts partially sent streams at offset zero, a requeued stream first",
			steps: []step{
				{push: []int{400, 100}, credit: 250, want: "a:0+100 b:0+100! a:100+50", queued: 250, streams: 1},
				// b's last chunk never arrived: it goes back in front, and
				// the fresh connection gets every stream from its first byte.
				{pushFront: 100, rewind: true, queued: 500, streams: 2},
				{credit: 1 << 20, want: "c:0+100! a:0+100 a:100+100 a:200+100 a:300+100!"},
			},
			peak: 500,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := transport.StreamConfig{ChunkSize: 100, StreamThreshold: 100, ParkBudget: 1000, MaxStreams: 4}
			if tc.maxStreams > 0 {
				cfg.MaxStreams = tc.maxStreams
			}
			q := transport.NewStreamQueue[byte](cfg)
			tag := byte('a')
			for i, st := range tc.steps {
				for _, size := range st.push {
					q.Push(tag, size)
					tag++
				}
				if st.pushFront > 0 {
					q.PushFront(tag, st.pushFront)
					tag++
				}
				if st.rewind {
					q.Rewind()
				}
				var got []string
				for credit := st.credit; ; {
					c, ok := q.Next(credit)
					if !ok {
						break
					}
					credit -= int64(c.Len)
					s := fmt.Sprintf("%c:%d+%d", c.Item, c.Offset, c.Len)
					if c.Fin {
						s += "!"
					}
					got = append(got, s)
				}
				if g := strings.Join(got, " "); g != st.want {
					t.Fatalf("step %d: chunks %q, want %q", i, g, st.want)
				}
				stats := q.Stats()
				if stats.QueuedBytes != st.queued || stats.StreamsActive != st.streams || stats.Evictions != st.evicts {
					t.Fatalf("step %d: stats %+v, want queued %d streams %d evictions %d",
						i, stats, st.queued, st.streams, st.evicts)
				}
				if q.Queued() != stats.QueuedBytes {
					t.Fatalf("step %d: Queued() %d disagrees with Stats %d", i, q.Queued(), stats.QueuedBytes)
				}
			}
			if peak := q.Stats().PeakQueuedBytes; peak != tc.peak {
				t.Fatalf("peak queued %d, want %d", peak, tc.peak)
			}
		})
	}
}

// TestStreamQueuePushReportsLoss: Push tells its caller how many streams the
// admission cost, the refused one included, so the caller can count drops
// and trace them.
func TestStreamQueuePushReportsLoss(t *testing.T) {
	q := transport.NewStreamQueue[int](transport.StreamConfig{ParkBudget: 1000})
	for i := 0; i < 3; i++ {
		if evicted, ok := q.Push(i, 300); evicted != 0 || !ok {
			t.Fatalf("push %d under budget: evicted %d ok %v", i, evicted, ok)
		}
	}
	if evicted, ok := q.Push(3, 500); evicted != 2 || !ok {
		t.Fatalf("push over budget: evicted %d ok %v, want 2 evicted and admitted", evicted, ok)
	}
	if evicted, ok := q.Push(4, 2000); evicted != 3 || ok {
		t.Fatalf("oversized push: evicted %d ok %v, want 3 lost (2 queued + itself) and refused", evicted, ok)
	}
}
