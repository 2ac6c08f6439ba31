package mempool

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"leopard/internal/types"
)

// poolWith builds a pool on the default budgets except for the fields set in
// tight.
func poolWith(lim Limits, tight budgets) *RequestPool {
	b := defaultBudgets
	for _, f := range []struct{ dst, src *int }{
		{&b.maxBytes, &tight.maxBytes},
		{&b.maxRequests, &tight.maxRequests},
		{&b.maxPerClient, &tight.maxPerClient},
		{&b.maxClients, &tight.maxClients},
		{&b.confirmedWindow, &tight.confirmedWindow},
	} {
		if *f.src > 0 {
			*f.dst = *f.src
		}
	}
	return newRequestPool(lim, b)
}

func sizedReq(client, seq uint64, payload int) types.Request {
	return types.Request{ClientID: client, Seq: seq, Payload: make([]byte, payload)}
}

// drain extracts every pending request.
func drain(p *RequestPool) []types.Request {
	out, _ := p.Extract(p.Len())
	return out
}

// TestDuplicateSuppressionAcrossConfirmAndEvict pins that only confirmation
// suppresses for good. The pool evicts nothing: a request refused under
// byte pressure, like one extracted, stays re-admittable.
func TestDuplicateSuppressionAcrossConfirmAndEvict(t *testing.T) {
	p := poolWith(Limits{}, budgets{maxBytes: 5 * req(0, 0).Size()})

	// Client 1: its anchor and three seqs above a gap, all pending.
	for _, seq := range []uint64{0, 10, 11, 12} {
		if v := p.Admit(req(1, seq), 0); v != Admitted {
			t.Fatalf("seq %d: %v", seq, v)
		}
	}
	for _, seq := range []uint64{0, 11} {
		if v := p.Admit(req(1, seq), 0); v != DupLive {
			t.Fatalf("pending dup seq %d verdict %v", seq, v)
		}
	}

	// The fifth request fills the byte budget; the sixth is refused and
	// nothing pending is touched.
	p.Admit(req(2, 0), 0)
	if v := p.Admit(req(2, 1), 0); v != PoolFull {
		t.Fatalf("pressure admission verdict %v, want pool-full", v)
	}
	if p.Len() != 5 {
		t.Fatalf("len = %d after a refusal, want 5", p.Len())
	}
	// Refusal is not confirmation: with room made, the same request is
	// admitted.
	p.Extract(1)
	if v := p.Admit(req(2, 1), 0); v != Admitted {
		t.Fatalf("refused request re-admission verdict %v", v)
	}

	// Confirmation suppresses permanently: exact ids as DupConfirmed,
	// below-watermark seqs as StaleSeq.
	p.MarkConfirmed(types.RequestID{Client: 2, Seq: 0})
	p.MarkConfirmed(types.RequestID{Client: 2, Seq: 1})
	if v := p.Admit(req(2, 1), 0); v != StaleSeq {
		t.Fatalf("confirmed-watermark re-admission verdict %v", v)
	}
	// Confirming a live entry above a gap drops it (10 and 11 stay).
	p.MarkConfirmed(types.RequestID{Client: 1, Seq: 12})
	if p.Len() != 2 {
		t.Fatalf("len = %d after confirming a live entry, want 2", p.Len())
	}
	if v := p.Admit(req(1, 12), 0); v != DupConfirmed {
		t.Fatalf("confirmed live entry re-admission verdict %v", v)
	}
}

func TestRateLimitRefillBoundaries(t *testing.T) {
	lim := Limits{RatePerSec: 1000, RateBurst: 2} // 1 token/ms, burst 2
	newPool := func() *RequestPool { return NewRequestPoolLimits(lim) }

	t.Run("burst-then-deny", func(t *testing.T) {
		p := newPool()
		for seq := uint64(0); seq < 2; seq++ {
			if v := p.Admit(req(1, seq), 0); v != Admitted {
				t.Fatalf("burst admission %d: %v", seq, v)
			}
		}
		if v := p.Admit(req(1, 2), 0); v != RateLimited {
			t.Fatalf("over-burst verdict %v", v)
		}
		if p.Stats().RateLimited != 1 || p.Stats().Rejected != 1 {
			t.Fatalf("stats %+v", p.Stats())
		}
	})
	t.Run("just-before-refill", func(t *testing.T) {
		p := newPool()
		p.Admit(req(1, 0), 0)
		p.Admit(req(1, 1), 0)
		if v := p.Admit(req(1, 2), 999*time.Microsecond); v != RateLimited {
			t.Fatalf("at t-1µs: %v, want rate-limited", v)
		}
	})
	t.Run("at-refill", func(t *testing.T) {
		p := newPool()
		p.Admit(req(1, 0), 0)
		p.Admit(req(1, 1), 0)
		if v := p.Admit(req(1, 2), time.Millisecond); v != Admitted {
			t.Fatalf("at refill boundary: %v, want admitted", v)
		}
		// The refill bought exactly one token.
		if v := p.Admit(req(1, 3), time.Millisecond); v != RateLimited {
			t.Fatalf("after spending the refilled token: %v", v)
		}
	})
	t.Run("burst-caps-refill", func(t *testing.T) {
		p := newPool()
		p.Admit(req(1, 0), 0)
		p.Admit(req(1, 1), 0)
		// A long idle period refills to the burst cap, not beyond.
		now := time.Second
		for seq := uint64(2); seq < 4; seq++ {
			if v := p.Admit(req(1, seq), now); v != Admitted {
				t.Fatalf("post-idle admission %d: %v", seq, v)
			}
		}
		if v := p.Admit(req(1, 4), now); v != RateLimited {
			t.Fatalf("burst cap not enforced: %v", v)
		}
	})
	t.Run("per-client", func(t *testing.T) {
		p := newPool()
		p.Admit(req(1, 0), 0)
		p.Admit(req(1, 1), 0)
		if v := p.Admit(req(1, 2), 0); v != RateLimited {
			t.Fatalf("client 1: %v", v)
		}
		// Client 2's bucket is untouched.
		if v := p.Admit(req(2, 0), 0); v != Admitted {
			t.Fatalf("client 2: %v", v)
		}
	})
}

// TestEvictionUnderBytePressure pins that no budget evicts: an arrival
// over the byte, count, per-client or client-state budget is refused, and
// every pending entry stays extractable in admission order.
func TestEvictionUnderBytePressure(t *testing.T) {
	const payload = 100
	unit := sizedReq(0, 0, payload).Size()
	// fill admits each request and refuses the next one with want; all the
	// admitted requests must then still drain, in order.
	fill := func(t *testing.T, p *RequestPool, admit []types.Request, next types.Request, want Verdict) {
		t.Helper()
		for _, r := range admit {
			if v := p.Admit(r, 0); v != Admitted {
				t.Fatalf("client %d seq %d: %v", r.ClientID, r.Seq, v)
			}
		}
		if v := p.Admit(next, 0); v != want {
			t.Fatalf("arrival over budget: %v, want %v", v, want)
		}
		got := drain(p)
		if len(got) != len(admit) {
			t.Fatalf("drained %d of %d admitted entries", len(got), len(admit))
		}
		for i, r := range got {
			if r.ID() != admit[i].ID() {
				t.Fatalf("extract %d: %v, want %v", i, r.ID(), admit[i].ID())
			}
		}
	}

	t.Run("bytes", func(t *testing.T) {
		p := poolWith(Limits{}, budgets{maxBytes: 5 * unit})
		var admit []types.Request
		for _, seq := range []uint64{0, 10, 11, 12, 13} {
			admit = append(admit, sizedReq(1, seq, payload))
		}
		// Not even an empty payload fits a full pool.
		fill(t, p, admit, sizedReq(3, 0, 0), PoolFull)
		if p.Bytes() != 0 {
			t.Fatalf("bytes = %d after draining", p.Bytes())
		}
	})
	t.Run("count", func(t *testing.T) {
		p := poolWith(Limits{}, budgets{maxRequests: 2})
		fill(t, p, []types.Request{req(1, 0), req(1, 5)}, req(2, 0), PoolFull)
	})
	t.Run("per-client", func(t *testing.T) {
		p := poolWith(Limits{}, budgets{maxPerClient: 2})
		fill(t, p, []types.Request{req(1, 0), req(1, 1)}, req(1, 2), ClientFull)
		// Another client is not held back by client 1's budget.
		if v := p.Admit(req(2, 0), 0); v != Admitted {
			t.Fatalf("client 2: %v", v)
		}
	})
	t.Run("client-state", func(t *testing.T) {
		p := poolWith(Limits{}, budgets{maxClients: 2})
		fill(t, p, []types.Request{req(1, 0), req(2, 0)}, req(3, 0), PoolFull)
		// Drained, both states are idle and are discarded to admit client 3.
		if v := p.Admit(req(3, 0), 0); v != Admitted {
			t.Fatalf("client 3 after the states went idle: %v", v)
		}
	})

	t.Run("in-flight-head-survives", func(t *testing.T) {
		p := poolWith(Limits{}, budgets{maxBytes: 3 * unit})
		// Client 1 has work in flight (extracted, unconfirmed) and a pending
		// head awaiting extraction.
		p.Admit(sizedReq(1, 0, payload), 0)
		if got, _ := p.Extract(1); len(got) != 1 {
			t.Fatal("extract failed")
		}
		fill(t, p, []types.Request{
			sizedReq(1, 1, payload), // the pending head
			sizedReq(2, 0, payload),
			sizedReq(3, 0, payload),
		}, sizedReq(4, 0, payload), PoolFull)
	})

	t.Run("rate-limit-precedes-pool-full", func(t *testing.T) {
		// The token check runs before the budgets: at a full pool a
		// throttled arrival is RateLimited, and only a refilled one reaches
		// the byte budget and is refused with PoolFull.
		p := poolWith(Limits{RatePerSec: 1000, RateBurst: 2}, budgets{maxBytes: 2 * unit}) // 1 token/ms
		p.Admit(sizedReq(1, 0, payload), 0)
		p.Admit(sizedReq(1, 1, payload), 0) // drains the burst and fills the pool
		if v := p.Admit(sizedReq(1, 2, payload), 500*time.Microsecond); v != RateLimited {
			t.Fatalf("throttled arrival at a full pool: %v, want rate-limited", v)
		}
		if v := p.Admit(sizedReq(1, 2, payload), 1500*time.Microsecond); v != PoolFull {
			t.Fatalf("refilled arrival at a full pool: %v, want pool-full", v)
		}
		if s := p.Stats(); s.RateLimited != 1 || s.Rejected != 2 || p.Len() != 2 {
			t.Fatalf("stats %+v, len %d", s, p.Len())
		}
	})
}

// TestPriorityOrderTotalAndDeterministic drives two identical pools through
// a seeded random workload and asserts (a) the order is total: every live
// entry is pending and extractable at all times, and requests leave in the
// order they were admitted, and (b) it is deterministic: both pools
// extract identical sequences.
func TestPriorityOrderTotalAndDeterministic(t *testing.T) {
	run := func(seed int64) []types.Request {
		rng := rand.New(rand.NewSource(seed))
		p := poolWith(Limits{}, budgets{maxRequests: 64})
		admittedAt := make(map[types.RequestID]int)
		last := -1
		var out []types.Request
		take := func(got []types.Request) {
			for _, r := range got {
				at := admittedAt[r.ID()]
				if at <= last {
					t.Fatalf("seed %d: %v admitted at step %d left after one admitted at step %d",
						seed, r.ID(), at, last)
				}
				last = at
			}
			out = append(out, got...)
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // admit
				r := req(uint64(rng.Intn(4)), uint64(rng.Intn(40)))
				if p.Admit(r, time.Duration(step)) == Admitted {
					admittedAt[r.ID()] = step
				}
			case op < 8: // extract a few
				got, _ := p.Extract(rng.Intn(5))
				take(got)
			default: // confirm a random id
				p.MarkConfirmed(types.RequestID{Client: uint64(rng.Intn(4)), Seq: uint64(rng.Intn(40))})
			}
			if live := len(p.byID); live != p.Len() {
				t.Fatalf("step %d: %d live entries but %d pending", step, live, p.Len())
			}
		}
		got, _ := p.Extract(p.Len())
		take(got)
		return out
	}

	for seed := int64(1); seed <= 3; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: extraction lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i].ID() != b[i].ID() {
				t.Fatalf("seed %d: extraction order diverged at %d: %v vs %v",
					seed, i, a[i].ID(), b[i].ID())
			}
		}
	}
}

// TestConfirmedBoundedUnderByzantineReplay is the regression for the old
// pool's unbounded confirmed set: a Byzantine client replaying old ids, or
// confirmations arriving with arbitrary gaps, must not grow per-client or
// per-pool bookkeeping without bound.
func TestConfirmedBoundedUnderByzantineReplay(t *testing.T) {
	lim := budgets{confirmedWindow: 64, maxClients: 32}
	p := poolWith(Limits{}, lim)

	// Out-of-order confirmations with gaps: the sparse set must stay
	// within the window while low seqs keep folding into the watermark.
	for seq := uint64(0); seq < 10_000; seq += 2 {
		p.MarkConfirmed(types.RequestID{Client: 1, Seq: seq})
	}
	c := p.clients[1]
	if len(c.confirmed) > lim.confirmedWindow {
		t.Fatalf("confirmed set grew to %d (window %d)", len(c.confirmed), lim.confirmedWindow)
	}

	// A replay storm of consumed ids is rejected without any growth.
	p.MarkConfirmed(types.RequestID{Client: 1, Seq: 1}) // base is now >= 2
	before := len(c.confirmed)
	for i := 0; i < 100_000; i++ {
		if v := p.Admit(req(1, uint64(i%2)), 0); v.OK() {
			t.Fatalf("replayed consumed id admitted at iteration %d: %v", i, v)
		}
		p.MarkConfirmed(types.RequestID{Client: 1, Seq: uint64(i % 2)})
	}
	if len(c.confirmed) != before || p.Len() != 0 || len(p.byID) != 0 {
		t.Fatalf("replay storm changed state: confirmed %d→%d, live %d",
			before, len(c.confirmed), len(p.byID))
	}

	// A flood of distinct client ids (confirmations for clients this
	// replica never served) keeps the state table at the cap: idle states
	// are swept wholesale when it fills.
	for id := uint64(100); id < 100+10*uint64(lim.maxClients); id++ {
		p.MarkConfirmed(types.RequestID{Client: id, Seq: 0})
	}
	if len(p.clients) > lim.maxClients {
		t.Fatalf("client states grew to %d (cap %d)", len(p.clients), lim.maxClients)
	}

	// Forgetting furthest-ahead confirmations fails open: the replay is
	// re-admitted (and can execute again), never lost low.
	p2 := poolWith(Limits{}, budgets{confirmedWindow: 4})
	for _, seq := range []uint64{10, 20, 30, 40, 50, 60} { // overflows window
		p2.MarkConfirmed(types.RequestID{Client: 5, Seq: seq})
	}
	c2 := p2.clients[5]
	if len(c2.confirmed) > 4 {
		t.Fatalf("window overflow not enforced: %d", len(c2.confirmed))
	}
	if _, ok := c2.confirmed[20]; !ok {
		t.Fatal("low confirmed seq was forgotten before high ones")
	}
	if v := p2.Admit(req(5, 20), 0); v != DupConfirmed {
		t.Fatalf("replay of a kept confirmation: %v, want confirmed", v)
	}
	if v := p2.Admit(req(5, 60), 0); v != Admitted {
		t.Fatalf("replay of a forgotten confirmation: %v, want admitted", v)
	}
}

func TestVerdictStrings(t *testing.T) {
	seen := make(map[string]Verdict)
	for v := Admitted; v <= BadSignature; v++ {
		str := v.String()
		if str == "" || str == "unknown" {
			t.Fatalf("verdict %d has no string", v)
		}
		if prev, ok := seen[str]; ok {
			t.Fatalf("verdicts %d and %d share the string %q", prev, v, str)
		}
		seen[str] = v
		if v.OK() != (v == Admitted) {
			t.Fatalf("OK() misclassifies %v", v)
		}
	}
	if (BadSignature + 1).String() != "unknown" {
		t.Fatal("out-of-range verdict must format as unknown")
	}
}

func TestAdmissionStats(t *testing.T) {
	p := poolWith(Limits{}, budgets{maxRequests: 1})
	p.Admit(req(1, 0), 0)
	p.Admit(req(1, 0), 0) // dup
	p.Admit(req(2, 0), 0) // pool full
	s := p.Stats()
	if s.Admitted != 1 || s.Rejected != 2 || s.RateLimited != 0 {
		t.Fatalf("stats %+v", s)
	}
	if fmt.Sprintf("%v", DupLive) != "duplicate" {
		t.Fatal("verdict formatting")
	}
}
