// Package mempool buffers pending client requests until they are packed
// into datablocks. The request pool is prioritized and nonce-aware: per
// client it keeps a pending list (sequence numbers reachable from what it
// has seen, extractable) and a queued list (nonce-gapped arrivals that
// become pending when the gap fills), under byte/count admission budgets,
// per-client token-bucket rate limits, and eviction of the lowest-priority
// entries under pressure. The protocol state machines that use it are
// single-threaded, so the pool is not synchronized. Datablocks are held by
// the replica that pools them (leopard.Node's datablock table), not here.
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
// reach the eviction and overflow paths.
type budgets struct {
	// maxBytes bounds the total wire size of live (pending + queued)
	// requests. Admission under pressure evicts the newest queued entries
	// to make room for gap-free arrivals; when nothing evictable remains,
	// new requests are rejected.
	maxBytes int
	// maxRequests bounds the number of live requests.
	maxRequests int
	// maxPerClient bounds one client's live requests.
	maxPerClient int
	// maxClients bounds the number of per-client states retained
	// (including pure dedup bookkeeping for clients with no live
	// requests). At the cap, idle states are discarded wholesale — their
	// clients fall back to consensus-output dedup.
	maxClients int
	// confirmedWindow bounds the out-of-order confirmed-seq set kept per
	// client above its contiguous watermark. Overflow forgets the
	// furthest-ahead confirmations: a replay of those re-runs consensus
	// harmlessly (consensus-output dedup is the backstop), whereas
	// forgetting low seqs could reject requests forever.
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
	// AdmittedQueued: admitted, but parked behind a nonce gap; it becomes
	// pending when the gap fills (or the gap's seqs confirm elsewhere).
	AdmittedQueued
	// DupLive: an identical request is already pending or queued.
	DupLive
	// DupConfirmed: the request already finished consensus.
	DupConfirmed
	// StaleSeq: the sequence number is below the client's consumed
	// watermark — superseded by a later committed request.
	StaleSeq
	// RateLimited: the client's token bucket is empty.
	RateLimited
	// PoolFull: the pool's byte/count/client budgets are exhausted and the
	// request did not outrank anything evictable.
	PoolFull
	// ClientFull: the client's live-request budget is exhausted.
	ClientFull
	// BadSignature is produced by leopard.Node.SubmitSigned when its
	// Config.Verifier rejects the client's signature, never by the pool
	// itself.
	BadSignature
)

// OK reports whether the request entered the pool.
func (v Verdict) OK() bool { return v <= AdmittedQueued }

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case AdmittedQueued:
		return "queued"
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

// entry pairs a live request with its enqueue time (so batching code can
// report how long requests waited — Table IV's generation stage) and its
// position in the priority order.
type entry struct {
	req    types.Request
	at     time.Duration
	client *clientState
	elem   *list.Element // in pending or queued
	queued bool
}

// clientState is the per-client nonce ledger and rate limiter.
type clientState struct {
	id   uint64
	init bool
	// base is the consumed watermark: every seq below it was confirmed or
	// superseded by a later confirmed seq, so submissions below it are
	// rejected as stale.
	base uint64
	// frontier is the highest seq reachable without a gap: every seq in
	// [base, frontier] was admitted or confirmed at some point. Arrivals
	// at or below frontier+1 go to pending; above it they queue.
	frontier uint64
	// confirmed holds confirmed seqs above base (out-of-order
	// confirmations), bounded by budgets.confirmedWindow.
	confirmed map[uint64]struct{}
	// gapped indexes this client's queued entries by seq for promotion.
	gapped map[uint64]*entry
	live   int

	tokens     float64
	lastRefill time.Duration
	tokensInit bool
}

// PoolStats are the pool's monotonic admission counters.
type PoolStats struct {
	Admitted    int64
	Rejected    int64 // every non-OK verdict, including RateLimited
	RateLimited int64
	Evicted     int64
}

// RequestPool is a prioritized, nonce-aware request pool with duplicate
// suppression. The zero value is not usable; create with
// NewRequestPoolLimits.
//
// Priority is total and deterministic: gap-free (pending) entries outrank
// nonce-gapped (queued) entries, and within each class earlier promotion
// outranks later. Extraction takes the highest-priority entries; eviction
// under pressure removes the lowest-priority ones.
type RequestPool struct {
	lim     Limits
	budget  budgets
	pending *list.List // *entry in promotion order (front = extract next)
	queued  *list.List // *entry in admission order (back = evict first)
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
		queued:  list.New(),
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
	c := &clientState{id: id}
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

	gapped := c.init && r.Seq > c.frontier+1
	size := r.Size()
	if !p.makeRoom(size, gapped) {
		return PoolFull
	}

	e := &entry{req: r, at: now, client: c}
	p.byID[id] = e
	c.live++
	p.bytes += size
	if gapped {
		e.queued = true
		e.elem = p.queued.PushBack(e)
		c.gapped[r.Seq] = e
		return AdmittedQueued
	}
	if !c.init {
		c.init = true
		c.base = r.Seq
		c.frontier = r.Seq
		c.confirmed = make(map[uint64]struct{})
		c.gapped = make(map[uint64]*entry)
	} else if r.Seq == c.frontier+1 {
		c.frontier = r.Seq
	}
	e.elem = p.pending.PushBack(e)
	p.promote(c)
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

// makeRoom enforces the byte/count budgets for an arrival of the given
// size, evicting queued entries (the lowest-priority class) to admit a
// gap-free request. Victims are chosen biggest-footprint-first — freeing
// the most bytes per lost request — with ties broken toward the newest
// arrival, so under byte pressure a single fat straggler is sacrificed
// before a crowd of small ones. Pending entries are never evicted: a
// client's extractable in-flight head survives any amount of pressure.
// A gapped arrival never evicts: it would itself be among the pool's
// lowest-priority entries.
func (p *RequestPool) makeRoom(size int, gapped bool) bool {
	over := func() bool {
		return len(p.byID) >= p.budget.maxRequests || p.bytes+size > p.budget.maxBytes
	}
	if !over() {
		return true
	}
	if gapped {
		return false
	}
	for over() && p.queued.Len() > 0 {
		// Back-to-front with a strict > keeps the backmost (newest) of any
		// size tie, matching the old newest-first order when sizes are equal.
		victim := p.queued.Back().Value.(*entry)
		for el := p.queued.Back().Prev(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.req.Size() > victim.req.Size() {
				victim = e
			}
		}
		p.remove(victim)
		p.stats.Evicted++
	}
	return !over()
}

// promote moves the client's queued entries into pending for as long as the
// frontier extends through them (or through seqs confirmed out of order).
func (p *RequestPool) promote(c *clientState) {
	for {
		if e, ok := c.gapped[c.frontier+1]; ok {
			c.frontier++
			delete(c.gapped, c.frontier)
			p.queued.Remove(e.elem)
			e.queued = false
			e.elem = p.pending.PushBack(e)
			continue
		}
		if _, ok := c.confirmed[c.frontier+1]; ok {
			c.frontier++
			continue
		}
		return
	}
}

// remove unlinks a live entry entirely.
func (p *RequestPool) remove(e *entry) {
	if e.queued {
		p.queued.Remove(e.elem)
		delete(e.client.gapped, e.req.Seq)
	} else {
		p.pending.Remove(e.elem)
	}
	delete(p.byID, e.req.ID())
	e.client.live--
	p.bytes -= e.req.Size()
}

// Len returns the number of pending (extractable) requests.
func (p *RequestPool) Len() int { return p.pending.Len() }

// Queued returns the number of nonce-gapped requests awaiting promotion.
func (p *RequestPool) Queued() int { return p.queued.Len() }

// Bytes returns the total wire size of live (pending + queued) requests.
func (p *RequestPool) Bytes() int { return p.bytes }

// Stats returns the pool's admission counters.
func (p *RequestPool) Stats() PoolStats { return p.stats }

// Extract removes and returns up to max pending requests in priority order,
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
// base watermark, out-of-order ones live in a window of ConfirmedWindow
// seqs whose furthest-ahead entries are forgotten on overflow.
func (p *RequestPool) MarkConfirmed(id types.RequestID) {
	c := p.client(id.Client)
	if c == nil {
		return // state budget exhausted: rely on consensus-output dedup
	}
	if e, ok := p.byID[id]; ok {
		p.remove(e)
	}
	seq := id.Seq
	if !c.init {
		c.init = true
		c.base = seq + 1
		c.frontier = seq
		c.confirmed = make(map[uint64]struct{})
		c.gapped = make(map[uint64]*entry)
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
	if c.base > 0 && c.frontier < c.base-1 {
		c.frontier = c.base - 1
	}
	if seq == c.frontier+1 {
		c.frontier = seq
	}
	// No live entry can sit below base here: base advances only through
	// seqs that were individually confirmed, and each confirmation removed
	// its live copy above.
	p.promote(c)
}
