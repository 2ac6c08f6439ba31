package transport

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestGetFrameSizeClasses: a pooled frame's capacity is its length rounded
// up to the class; below one class a frame is an exact allocation.
func TestGetFrameSizeClasses(t *testing.T) {
	for _, tc := range []struct{ n, cap int }{
		{1, 1},
		{FrameClass - 1, FrameClass - 1},
		{FrameClass, FrameClass},
		{FrameClass + 1, 2 * FrameClass},
		{512<<10 + 37, 512<<10 + FrameClass},
	} {
		b := GetFrame(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("GetFrame(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
	}
}

// TestFramePoolReusesExactClass: a returned frame comes back for a request
// of its own class, and only of its own class, from either tier.
func TestFramePoolReusesExactClass(t *testing.T) {
	for _, reserve := range []int{1 << 20, 0} {
		p := newFramePool(reserve, 1<<20)
		b := make([]byte, 3*FrameClass)
		p.put(3, b)
		if got := p.get(2); got != nil {
			t.Fatalf("reserve %d: a class-3 frame served a class-2 request", reserve)
		}
		got := p.get(3)
		if got == nil || &got[0] != &b[0] || len(got) != 3*FrameClass {
			t.Fatalf("reserve %d: the class-3 frame was not reused for a class-3 request", reserve)
		}
		if p.get(3) != nil {
			t.Fatalf("reserve %d: one returned frame was handed out twice", reserve)
		}
	}
}

// TestFramePoolTiers: the reserve holds the most recent frames up to its
// limit and hands its older ones to the weak tier when it fills; the weak
// tier indexes at most its limit of live frames and refuses the rest.
func TestFramePoolTiers(t *testing.T) {
	p := newFramePool(4*FrameClass, 4*FrameClass)
	var kept [][]byte
	put := func() {
		b := make([]byte, 2*FrameClass)
		kept = append(kept, b)
		p.put(2, b)
	}
	put()
	put()
	if p.held != 4*FrameClass || p.n != 0 {
		t.Fatalf("two frames: reserve holds %d bytes and the weak tier %d frames, want 2 and 0", p.held/FrameClass, p.n)
	}
	put()
	if p.held != 2*FrameClass || p.n != 2 || p.reserve[2][0] == nil || &p.reserve[2][0][0] != &kept[2][0] {
		t.Fatalf("a third frame must take the reserve and push the two older ones to the weak tier")
	}
	put()
	put() // the reserve moves two more, and the full weak tier refuses them
	if p.n != 2 || p.indexed != 4*FrameClass {
		t.Fatalf("the weak tier indexes %d frames, %d bytes, past its limit", p.n, p.indexed)
	}
	if got := p.get(2); got == nil || &got[0] != &kept[1][0] {
		t.Fatal("get must take the weak tier's newest frame first")
	}
	runtime.KeepAlive(kept)
}

// TestFramePoolForgetsReclaimedFrames: the weak tier holds its frames
// weakly, so a frame nobody claims before a collection is freed by it, and
// a full tier sweeps such entries out to make room.
func TestFramePoolForgetsReclaimedFrames(t *testing.T) {
	if poisonFrames {
		t.Skip("the poisoned build pools nothing")
	}
	p := newFramePool(0, 2*FrameClass)
	putFresh := func(c int) {
		p.put(c, make([]byte, c*FrameClass))
	}
	putFresh(2)
	runtime.GC()
	runtime.GC()
	if p.get(2) != nil {
		t.Fatal("a weakly held frame survived a collection")
	}
	putFresh(2)
	runtime.GC()
	runtime.GC()
	b := make([]byte, 2*FrameClass)
	p.put(2, b) // the tier is full of a reclaimed entry: the sweep makes room
	if got := p.get(2); got == nil || &got[0] != &b[0] {
		t.Fatal("a reclaimed entry kept a live frame out of a full weak tier")
	}
}

// TestFramePoolConcurrent: send loops and read loops share the pool, and
// no frame is ever handed to two owners at once.
func TestFramePoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				b := GetFrame(FrameClass*(1+i%3) + 1)
				for j := range b {
					b[j] = mark
				}
				runtime.Gosched()
				for j, v := range b {
					if v != mark {
						t.Errorf("owner %d's frame was overwritten at %d", mark, j)
						return
					}
				}
				PutFrame(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

// TestReassemblerReusesFrames: once warm, a reassemble-and-return cycle —
// the receive path of one datablock, chunked — allocates no frame.
func TestReassemblerReusesFrames(t *testing.T) {
	if poisonFrames {
		t.Skip("the poisoned build pools nothing")
	}
	cfg := StreamConfig{}
	cfg.Normalize()
	const total = 512<<10 + 100
	payload := bytes.Repeat([]byte{7}, total)
	asm := NewReassembler(cfg, 1<<20)
	var src bytes.Reader
	cycle := func() {
		for off := 0; off < total; {
			n := cfg.ChunkLen(total, off)
			h := StreamHeader{StreamID: 1, Offset: uint64(off), Total: total, Fin: off+n == total}
			src.Reset(payload[off : off+n])
			frame, err := asm.Add(h, n, &src)
			if err != nil {
				t.Fatal(err)
			}
			off += n
			if frame != nil {
				if !bytes.Equal(frame, payload) {
					t.Fatal("reassembled frame differs from the payload")
				}
				PutFrame(frame)
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm reassemble-and-return cycle made %.0f allocations", allocs)
	}
}
