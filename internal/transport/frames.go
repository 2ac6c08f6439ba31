package transport

import (
	"sync"
	"unsafe"
	"weak"
)

// Bulk frame pool.
//
// A bulk-lane frame is large (a datablock of 32 KiB requests is half a
// megabyte) and short-lived, and a fresh one costs its allocation, its
// zeroing and, for large frames, fresh pages. So the frames a replica
// handles on the bulk path come from one pool: the reassembler draws every
// stream buffer from it, and leopard.EncodeMessage every frame it encodes.
// A frame goes back (PutFrame) only when its single owner is done with it:
//
//   - the TCP sender returns an encoded frame once every peer it was queued
//     to has written its fin chunk;
//   - a received datablock's frame is owned by the replica's datablock
//     record, and releasing the record returns it.
//
// Nothing else returns a frame. A frame that is evicted from a send queue,
// refused as a duplicate, or decoded into a message nobody keeps simply
// goes to the garbage collector.
//
// Size classes are FrameClass wide: GetFrame(n) hands out a buffer whose
// capacity is n rounded up to the class, and reuses only a frame of exactly
// that class. A returned frame goes to one of two tiers:
//
//   - The reserve holds up to framePoolReserve bytes outright, so its
//     frames survive garbage collections. It keeps the frames returned
//     most recently and moves older ones to the weak tier when it fills.
//   - The weak tier references frames weakly, up to framePoolBytes. A
//     datablock record is released with its whole checkpoint window, so
//     frames come back in bursts far larger than any reserve worth
//     keeping; the weak tier lets the next window's traffic reuse a burst
//     while keeping nothing alive that the collector would free. A frame
//     there that no GetFrame claims before the next collection is
//     reclaimed by it, so a size that never recurs does not stay pooled.
//
// GetFrame takes from the weak tier first, while its frames last.
//
// GetFrame does not clear a reused frame. Both callers overwrite every
// byte before anyone reads it: an encode writes the whole frame, and the
// reassembler hands out a stream only after reading all of its bytes.
//
// Built with the framepoison tag, PutFrame overwrites every returned frame
// with a poison pattern and pools nothing, so a reader that outlives the
// frame's owner sees poison instead of plausible bytes (the CI step that
// runs the leopard, experiments and storage tests that way).

// FrameClass is the pool's size-class width.
const FrameClass = 4 << 10

// framePoolReserve caps the bytes the pool holds outright, and
// framePoolBytes the capacity its weak tier indexes.
const (
	framePoolReserve = 64 << 20
	framePoolBytes   = 1 << 30
)

// poisonByte fills returned frames under the framepoison tag.
const poisonByte = 0xDB

// GetFrame returns a buffer of length n for a bulk frame. Its contents are
// unspecified: the caller must write every byte it later reads. Frames
// below one class are plain allocations.
func GetFrame(n int) []byte {
	if n < FrameClass {
		return make([]byte, n)
	}
	c := (n + FrameClass - 1) / FrameClass
	if b := frames.get(c); b != nil {
		return b[:n]
	}
	return make([]byte, n, c*FrameClass)
}

// PutFrame returns b to the pool. The caller must hold the only reference
// to b's memory and drop it with this call.
func PutFrame(b []byte) {
	b = b[:cap(b)]
	if poisonFrames {
		for i := range b {
			b[i] = poisonByte
		}
		return
	}
	if c := len(b) / FrameClass; c > 0 {
		frames.put(c, b[:c*FrameClass])
	}
}

// framePool is the free list behind GetFrame and PutFrame, per class c a
// stack of frames of exactly c × FrameClass capacity in each tier (a frame
// whose capacity is not a class multiple is filed under the class below
// it, and only that much of it is reused).
type framePool struct {
	reserveLimit, weakLimit int

	mu      sync.Mutex
	reserve map[int][][]byte
	weak    map[int][]weak.Pointer[byte]
	held    int // bytes in reserve
	n       int // entries in weak, reclaimed ones included
	indexed int // capacity those entries index
	// idle counts the refusals still to come before put sweeps the weak
	// tier again: a sweep that found every frame there alive waits until
	// as many frames as the tier indexes have been refused.
	idle int
}

var frames = newFramePool(framePoolReserve, framePoolBytes)

func newFramePool(reserveLimit, weakLimit int) *framePool {
	return &framePool{
		reserveLimit: reserveLimit,
		weakLimit:    weakLimit,
		reserve:      make(map[int][][]byte),
		weak:         make(map[int][]weak.Pointer[byte]),
	}
}

// get pops a frame of class c, or returns nil.
func (p *framePool) get(c int) []byte {
	size := c * FrameClass
	p.mu.Lock()
	defer p.mu.Unlock()
	refs := p.weak[c]
	for len(refs) > 0 {
		w := refs[len(refs)-1]
		refs = refs[:len(refs)-1]
		p.n--
		p.indexed -= size
		if first := w.Value(); first != nil {
			p.weak[c] = refs
			return unsafe.Slice(first, size)
		}
	}
	delete(p.weak, c)
	held := p.reserve[c]
	if len(held) == 0 {
		return nil
	}
	b := held[len(held)-1]
	held[len(held)-1] = nil
	p.reserve[c] = held[:len(held)-1]
	p.held -= size
	return b
}

// put files b, of class c, in the reserve. The reserve keeps the frames
// returned most recently: when b does not fit, the frames it holds move to
// the weak tier first. A frame larger than the whole reserve goes straight
// to the weak tier.
func (p *framePool) put(c int, b []byte) {
	size := c * FrameClass
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held+size > p.reserveLimit {
		for rc, held := range p.reserve {
			for i, f := range held {
				p.putWeak(rc, f)
				held[i] = nil
			}
			p.reserve[rc] = held[:0]
		}
		p.held = 0
	}
	if size > p.reserveLimit {
		p.putWeak(c, b)
		return
	}
	p.reserve[c] = append(p.reserve[c], b)
	p.held += size
}

// putWeak files b in the weak tier, unless that is full of frames that are
// still alive. Callers hold mu.
func (p *framePool) putWeak(c int, b []byte) {
	size := c * FrameClass
	if p.indexed+size > p.weakLimit {
		if p.idle > 0 {
			p.idle--
			return
		}
		p.sweep()
		if p.indexed+size > p.weakLimit {
			p.idle = p.n
			return
		}
	}
	p.weak[c] = append(p.weak[c], weak.Make(&b[0]))
	p.n++
	p.indexed += size
}

// sweep drops the weak tier's entries whose frames the collector has
// reclaimed.
func (p *framePool) sweep() {
	for c, refs := range p.weak {
		kept := refs[:0]
		for _, w := range refs {
			if w.Value() != nil {
				kept = append(kept, w)
			}
		}
		p.n -= len(refs) - len(kept)
		p.indexed -= (len(refs) - len(kept)) * c * FrameClass
		if len(kept) == 0 {
			delete(p.weak, c)
		} else {
			clear(refs[len(kept):])
			p.weak[c] = kept
		}
	}
}
