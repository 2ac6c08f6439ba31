// Package mempool buffers pending client requests until they are packed
// into datablocks. The request pool is one FIFO with duplicate
// suppression: per client it keeps a consumed watermark and a bounded
// window of confirmations above it, so a request that already finished
// consensus, or was superseded by one that did, is refused. Admission is
// bounded by byte, count, per-client and client-state budgets and by an
// optional per-client token bucket. A request over budget is refused; an
// admitted one leaves only by extraction or confirmation, never by
// eviction. The protocol state machines that use it are single-threaded,
// so the pool is not synchronized. Datablocks are held by the replica
// that pools them (leopard.Node's datablock table), not here.
package mempool

import (
	"container/list"
	"time"

	"leopard/internal/types"
)

// Limits tunes a RequestPool's per-client rate limiting. The zero value
// turns it off.
type Limits struct {
	// RatePerSec, when positive, enables a per-client token bucket:
	// admissions drain one token, refilled at this rate up to RateBurst.
	RatePerSec float64
	// RateBurst is the bucket capacity; zero with RatePerSec set means 32.
	RateBurst int
}

// budgets are a pool's admission bounds. Every pool outside this package's
// tests runs on defaultBudgets — generous on purpose: saturation workloads
// keep tens of thousands of synthetic requests outstanding and expect them
// admitted — and the tests shrink single fields through newRequestPool to
// reach the overflow paths.
type budgets struct {
	// maxBytes bounds the total wire size of pending requests; an arrival
	// that would exceed it is refused with PoolFull.
	maxBytes int
	// maxRequests bounds the number of pending requests.
	maxRequests int
	// maxPerClient bounds one client's pending requests.
	maxPerClient int
	// maxClients bounds the number of per-client states retained
	// (including pure dedup bookkeeping for clients with no pending
	// requests). At the cap, idle states are discarded wholesale, and
	// with them what their clients had confirmed: a resubmission of one
	// of those requests is admitted and can execute again, as execution
	// does not deduplicate requests.
	maxClients int
	// confirmedWindow bounds the out-of-order confirmed-seq set kept per
	// client above its contiguous watermark. Overflow forgets the
	// furthest-ahead confirmations, whose resubmission is then admitted
	// and can execute again; forgetting low seqs instead could reject
	// requests forever.
	confirmedWindow int
}

var defaultBudgets = budgets{
	maxBytes:        256 << 20,
	maxRequests:     1 << 20,
	maxPerClient:    1 << 16,
	maxClients:      1 << 16,
	confirmedWindow: 4096,
}

// Verdict is the outcome of one admission attempt.
type Verdict uint8

const (
	// Admitted: the request is pending and extractable.
	Admitted Verdict = iota
	// DupLive: an identical request is already pending.
	DupLive
	// DupConfirmed: the request already finished consensus.
	DupConfirmed
	// StaleSeq: the sequence number is below the client's consumed
	// watermark — superseded by a later committed request.
	StaleSeq
	// RateLimited: the client's token bucket is empty.
	RateLimited
	// PoolFull: the pool's byte, count or client-state budget is
	// exhausted.
	PoolFull
	// ClientFull: the client's live-request budget is exhausted.
	ClientFull
	// BadSignature is produced by leopard.Node.SubmitSigned when its
	// Config.Verifier rejects the client's signature, never by the pool
	// itself.
	BadSignature
)

// OK reports whether the request entered the pool.
func (v Verdict) OK() bool { return v == Admitted }

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case DupLive:
		return "duplicate"
	case DupConfirmed:
		return "confirmed"
	case StaleSeq:
		return "stale-seq"
	case RateLimited:
		return "rate-limited"
	case PoolFull:
		return "pool-full"
	case ClientFull:
		return "client-full"
	case BadSignature:
		return "bad-signature"
	default:
		return "unknown"
	}
}

// entry pairs a pending request with its enqueue time (so batching code
// can report how long requests waited — Table IV's generation stage) and
// its position in the FIFO.
type entry struct {
	req    types.Request
	at     time.Duration
	client *clientState
	elem   *list.Element // in pending
}

// clientState is the per-client dedup ledger and rate limiter.
type clientState struct {
	init bool
	// base is the consumed watermark: every seq below it was confirmed or
	// superseded by a later confirmed seq, so submissions below it are
	// rejected as stale. A client's first admission anchors it (at that
	// seq), or else its first confirmation (one past it).
	base uint64
	// confirmed holds confirmed seqs above base (out-of-order
	// confirmations), bounded by budgets.confirmedWindow.
	confirmed map[uint64]struct{}
	live      int

	tokens     float64
	lastRefill time.Duration
	tokensInit bool
}

// PoolStats are the pool's monotonic admission counters.
type PoolStats struct {
	Admitted    int64
	Rejected    int64 // every non-OK verdict, including RateLimited
	RateLimited int64
}

// RequestPool is a FIFO of pending client requests with duplicate
// suppression. The zero value is not usable; create with
// NewRequestPoolLimits.
//
// Requests leave in admission order, whatever their sequence numbers: a
// seq above a client's next one is pending at once, not held back until
// the seqs between arrive.
type RequestPool struct {
	lim     Limits
	budget  budgets
	pending *list.List // *entry in admission order (front = extract next)
	byID    map[types.RequestID]*entry
	clients map[uint64]*clientState
	bytes   int
	stats   PoolStats
}

// NewRequestPoolLimits creates an empty pool rate-limited by lim; the zero
// Limits turns rate limiting off.
func NewRequestPoolLimits(lim Limits) *RequestPool { return newRequestPool(lim, defaultBudgets) }

func newRequestPool(lim Limits, budget budgets) *RequestPool {
	if lim.RatePerSec > 0 && lim.RateBurst <= 0 {
		lim.RateBurst = 32
	}
	return &RequestPool{
		lim:     lim,
		budget:  budget,
		pending: list.New(),
		byID:    make(map[types.RequestID]*entry),
		clients: make(map[uint64]*clientState),
	}
}

// client returns the per-client state, creating it if the state budget
// allows. At the cap, idle states (no live entries) are discarded wholesale
// — a deterministic set, so seeded simulations stay reproducible — and nil
// is returned only if every retained state still has live entries.
func (p *RequestPool) client(id uint64) *clientState {
	if c, ok := p.clients[id]; ok {
		return c
	}
	if len(p.clients) >= p.budget.maxClients {
		for cid, c := range p.clients {
			if c.live == 0 {
				delete(p.clients, cid)
			}
		}
		if len(p.clients) >= p.budget.maxClients {
			return nil
		}
	}
	c := &clientState{}
	p.clients[id] = c
	return c
}

// Admit attempts to add a request at time now and returns the verdict.
func (p *RequestPool) Admit(r types.Request, now time.Duration) Verdict {
	v := p.admit(r, now)
	if v.OK() {
		p.stats.Admitted++
	} else {
		p.stats.Rejected++
		if v == RateLimited {
			p.stats.RateLimited++
		}
	}
	return v
}

func (p *RequestPool) admit(r types.Request, now time.Duration) Verdict {
	id := r.ID()
	if _, ok := p.byID[id]; ok {
		return DupLive
	}
	c := p.client(r.ClientID)
	if c == nil {
		return PoolFull
	}
	if c.init {
		if r.Seq < c.base {
			return StaleSeq
		}
		if _, ok := c.confirmed[r.Seq]; ok {
			return DupConfirmed
		}
	}
	if c.live >= p.budget.maxPerClient {
		return ClientFull
	}
	if p.lim.RatePerSec > 0 && !p.takeToken(c, now) {
		return RateLimited
	}
	size := r.Size()
	if len(p.byID) >= p.budget.maxRequests || p.bytes+size > p.budget.maxBytes {
		return PoolFull
	}
	if !c.init {
		c.init = true
		c.base = r.Seq
		c.confirmed = make(map[uint64]struct{})
	}
	e := &entry{req: r, at: now, client: c}
	e.elem = p.pending.PushBack(e)
	p.byID[id] = e
	c.live++
	p.bytes += size
	return Admitted
}

// takeToken refills and drains the client's token bucket. The bucket is
// primed full at its first use.
func (p *RequestPool) takeToken(c *clientState, now time.Duration) bool {
	burst := float64(p.lim.RateBurst)
	if !c.tokensInit {
		c.tokensInit = true
		c.tokens = burst
		c.lastRefill = now
	} else if now > c.lastRefill {
		c.tokens += (now - c.lastRefill).Seconds() * p.lim.RatePerSec
		if c.tokens > burst {
			c.tokens = burst
		}
		c.lastRefill = now
	}
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}

// remove unlinks a pending entry.
func (p *RequestPool) remove(e *entry) {
	p.pending.Remove(e.elem)
	delete(p.byID, e.req.ID())
	e.client.live--
	p.bytes -= e.req.Size()
}

// Len returns the number of pending requests.
func (p *RequestPool) Len() int { return p.pending.Len() }

// Bytes returns the total wire size of pending requests.
func (p *RequestPool) Bytes() int { return p.bytes }

// Stats returns the pool's admission counters.
func (p *RequestPool) Stats() PoolStats { return p.stats }

// Extract removes and returns up to max pending requests in admission order,
// along with the enqueue time of the oldest extracted request (zero when
// none). Extracted requests may be re-admitted until they confirm — that is
// how client retransmissions of in-flight requests are served.
func (p *RequestPool) Extract(max int) ([]types.Request, time.Duration) {
	if max <= 0 {
		return nil, 0
	}
	n := max
	if l := p.pending.Len(); l < n {
		n = l
	}
	if n == 0 {
		return nil, 0
	}
	var oldest time.Duration
	out := make([]types.Request, 0, n)
	for i := 0; i < n; i++ {
		e := p.pending.Front().Value.(*entry)
		p.remove(e)
		if i == 0 || e.at < oldest {
			oldest = e.at
		}
		out = append(out, e.req)
	}
	return out, oldest
}

// MarkConfirmed records that a request finished consensus: duplicates are
// rejected from then on, a live copy (confirmed via another replica's
// datablock) is dropped, and the client's consumed watermark advances.
// Per-client bookkeeping is bounded: contiguous confirmations fold into the
// base watermark, out-of-order ones live in a window of confirmedWindow
// seqs whose furthest-ahead entries are forgotten on overflow.
func (p *RequestPool) MarkConfirmed(id types.RequestID) {
	c := p.client(id.Client)
	if c == nil {
		// The client-state budget is exhausted: the confirmation is not
		// recorded, so a resubmission is admitted and can execute again.
		return
	}
	if e, ok := p.byID[id]; ok {
		p.remove(e)
	}
	seq := id.Seq
	if !c.init {
		c.init = true
		c.base = seq + 1
		c.confirmed = make(map[uint64]struct{})
		return
	}
	if seq < c.base {
		return
	}
	if _, ok := c.confirmed[seq]; ok {
		return
	}
	if seq == c.base {
		c.base++
		for {
			if _, ok := c.confirmed[c.base]; !ok {
				break
			}
			delete(c.confirmed, c.base)
			c.base++
		}
	} else {
		if len(c.confirmed) >= p.budget.confirmedWindow {
			var maxSeq uint64
			for s := range c.confirmed {
				if s > maxSeq {
					maxSeq = s
				}
			}
			if seq > maxSeq {
				return // the newcomer is the furthest ahead: forget it
			}
			delete(c.confirmed, maxSeq)
		}
		c.confirmed[seq] = struct{}{}
	}
}
