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

func TestNonceGapsFilledOutOfOrder(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	steps := []struct {
		seq         uint64
		want        Verdict
		len, queued int
	}{
		{0, Admitted, 1, 0},         // anchors the client
		{3, AdmittedQueued, 1, 1},   // gap: 1, 2 missing
		{5, AdmittedQueued, 1, 2},   // still gapped
		{2, AdmittedQueued, 1, 3},   // fills part of the gap, 1 still missing
		{1, Admitted, 4, 1},         // closes the gap: 1 promotes 2 and 3; 5 stays
		{4, Admitted, 6, 0},         // closes the rest: 4 promotes 5
		{4, DupLive, 6, 0},          // live duplicate
		{100, AdmittedQueued, 6, 1}, // far-future gap queues but is admitted
	}
	for i, s := range steps {
		if got := p.Admit(req(1, s.seq), 0); got != s.want {
			t.Fatalf("step %d (seq %d): verdict %v, want %v", i, s.seq, got, s.want)
		}
		if p.Len() != s.len || p.Queued() != s.queued {
			t.Fatalf("step %d (seq %d): len=%d queued=%d, want %d/%d",
				i, s.seq, p.Len(), p.Queued(), s.len, s.queued)
		}
	}
	// Promotion preserved per-client sequence order.
	got := drain(p)
	for i, r := range got {
		if r.Seq != uint64(i) {
			t.Fatalf("extract %d: seq %d, want %d", i, r.Seq, i)
		}
	}
}

func TestGapFilledByConfirmation(t *testing.T) {
	// Seq 1 confirms via another replica's datablock without ever being
	// submitted here; the local queued seq 2 must still promote.
	p := NewRequestPoolLimits(Limits{})
	p.Admit(req(7, 0), 0)
	if v := p.Admit(req(7, 2), 0); v != AdmittedQueued {
		t.Fatalf("seq 2 verdict %v, want queued", v)
	}
	p.MarkConfirmed(types.RequestID{Client: 7, Seq: 1})
	if p.Len() != 2 || p.Queued() != 0 {
		t.Fatalf("after confirm of gap seq: len=%d queued=%d, want 2/0", p.Len(), p.Queued())
	}
	// And a later submission of the confirmed seq is rejected.
	if v := p.Admit(req(7, 1), 0); v != DupConfirmed {
		t.Fatalf("confirmed seq re-admission verdict %v", v)
	}
}

func TestDuplicateSuppressionAcrossConfirmAndEvict(t *testing.T) {
	p := poolWith(Limits{}, budgets{maxBytes: 5 * req(0, 0).Size()})

	// Client 1: one pending anchor + three gapped entries.
	p.Admit(req(1, 0), 0)
	for _, seq := range []uint64{10, 11, 12} {
		if v := p.Admit(req(1, seq), 0); v != AdmittedQueued {
			t.Fatalf("seq %d: %v", seq, v)
		}
	}
	// Live duplicates are suppressed in both lists.
	if v := p.Admit(req(1, 0), 0); v != DupLive {
		t.Fatalf("pending dup verdict %v", v)
	}
	if v := p.Admit(req(1, 11), 0); v != DupLive {
		t.Fatalf("queued dup verdict %v", v)
	}

	// A gap-free arrival under byte pressure evicts the newest queued
	// entry (seq 12), which is then re-admittable — eviction is not
	// confirmation.
	p.Admit(req(2, 0), 0)
	if v := p.Admit(req(2, 1), 0); v != Admitted {
		t.Fatalf("pressure admission verdict %v", v)
	}
	if got := p.Stats().Evicted; got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	if _, ok := p.byID[types.RequestID{Client: 1, Seq: 12}]; ok {
		t.Fatal("newest queued entry not the eviction victim")
	}
	p.Extract(p.Len()) // make room
	if v := p.Admit(req(1, 12), 0); v != AdmittedQueued {
		t.Fatalf("evicted entry re-admission verdict %v", v)
	}

	// Confirmation suppresses permanently: exact ids as DupConfirmed,
	// below-watermark seqs as StaleSeq.
	p.MarkConfirmed(types.RequestID{Client: 2, Seq: 0})
	p.MarkConfirmed(types.RequestID{Client: 2, Seq: 1})
	if v := p.Admit(req(2, 1), 0); v != StaleSeq {
		t.Fatalf("confirmed-watermark re-admission verdict %v", v)
	}
	// Confirming a live queued entry drops it (10 and 11 stay gapped).
	p.MarkConfirmed(types.RequestID{Client: 1, Seq: 12})
	if p.Queued() != 2 {
		t.Fatalf("queued = %d after confirming the queued entry, want 2", p.Queued())
	}
	if v := p.Admit(req(1, 12), 0); v != DupConfirmed {
		t.Fatalf("confirmed queued re-admission verdict %v", v)
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

func TestEvictionUnderBytePressure(t *testing.T) {
	const payload = 100
	unit := sizedReq(0, 0, payload).Size()
	p := poolWith(Limits{}, budgets{maxBytes: 5 * unit})

	p.Admit(sizedReq(1, 0, payload), 0)
	for _, seq := range []uint64{10, 11, 12, 13} {
		if v := p.Admit(sizedReq(1, seq, payload), 0); v != AdmittedQueued {
			t.Fatalf("seq %d: %v", seq, v)
		}
	}
	if p.Bytes() != 5*unit {
		t.Fatalf("bytes = %d, want %d", p.Bytes(), 5*unit)
	}

	// A gapped arrival would itself be lowest priority: rejected outright,
	// nothing evicted.
	p2 := poolWith(Limits{}, budgets{maxBytes: 2 * unit})
	p2.Admit(sizedReq(1, 0, payload), 0)
	p2.Admit(sizedReq(1, 5, payload), 0) // queued, pool now full
	if v := p2.Admit(sizedReq(1, 9, payload), 0); v != PoolFull {
		t.Fatalf("gapped arrival at full pool: %v, want pool-full", v)
	}
	if p2.Stats().Evicted != 0 {
		t.Fatalf("gapped arrival evicted %d entries", p2.Stats().Evicted)
	}

	// Gap-free arrivals evict newest-queued first, oldest-queued last.
	if v := p.Admit(sizedReq(3, 0, payload), 0); v != Admitted {
		t.Fatalf("pressure admission: %v", v)
	}
	if _, ok := p.byID[types.RequestID{Client: 1, Seq: 13}]; ok {
		t.Fatal("seq 13 (newest queued) should be the first victim")
	}
	if _, ok := p.byID[types.RequestID{Client: 1, Seq: 10}]; !ok {
		t.Fatal("seq 10 (oldest queued) evicted too early")
	}

	// When only pending entries remain, pressure rejects the newcomer
	// rather than evicting older gap-free work.
	p3 := poolWith(Limits{}, budgets{maxBytes: 2 * unit})
	p3.Admit(sizedReq(1, 0, payload), 0)
	p3.Admit(sizedReq(2, 0, payload), 0)
	if v := p3.Admit(sizedReq(3, 0, payload), 0); v != PoolFull {
		t.Fatalf("all-pending full pool: %v, want pool-full", v)
	}
	if p3.Len() != 2 {
		t.Fatalf("pending entries evicted under pressure: len=%d", p3.Len())
	}

	// MaxRequests binds the same way as MaxBytes.
	p4 := poolWith(Limits{}, budgets{maxRequests: 2})
	p4.Admit(req(1, 0), 0)
	p4.Admit(req(1, 5), 0) // queued
	if v := p4.Admit(req(2, 0), 0); v != Admitted {
		t.Fatalf("count-pressure admission: %v", v)
	}
	if p4.Queued() != 0 {
		t.Fatal("count pressure did not evict the queued entry")
	}
}

// TestPriorityOrderTotalAndDeterministic drives two identical pools through
// a seeded random workload and asserts (a) the priority order is total:
// every live entry sits in exactly one of the two priority classes at all
// times, (b) it is deterministic: both pools extract identical sequences,
// and (c) promotion respects per-client sequence order for first-time
// admissions.
func TestPriorityOrderTotalAndDeterministic(t *testing.T) {
	run := func(seed int64) []types.Request {
		rng := rand.New(rand.NewSource(seed))
		p := poolWith(Limits{}, budgets{maxRequests: 64})
		extracted := make(map[types.RequestID]bool)
		var out []types.Request
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // admit
				r := req(uint64(rng.Intn(4)), uint64(rng.Intn(40)))
				if extracted[r.ID()] {
					continue // keep first-admission order observable
				}
				p.Admit(r, time.Duration(step))
			case op < 8: // extract a few
				got, _ := p.Extract(rng.Intn(5))
				for _, r := range got {
					extracted[r.ID()] = true
				}
				out = append(out, got...)
			default: // confirm a random id
				p.MarkConfirmed(types.RequestID{Client: uint64(rng.Intn(4)), Seq: uint64(rng.Intn(40))})
			}
			if live := len(p.byID); live != p.Len()+p.Queued() {
				t.Fatalf("step %d: %d live entries but %d pending + %d queued",
					step, live, p.Len(), p.Queued())
			}
		}
		got, _ := p.Extract(p.Len())
		return append(out, got...)
	}

	for seed := int64(1); seed <= 3; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: extraction lengths differ: %d vs %d", seed, len(a), len(b))
		}
		lastSeq := map[uint64]uint64{}
		for i := range a {
			if a[i].ID() != b[i].ID() {
				t.Fatalf("seed %d: extraction order diverged at %d: %v vs %v",
					seed, i, a[i].ID(), b[i].ID())
			}
			if last, ok := lastSeq[a[i].ClientID]; ok && a[i].Seq <= last {
				t.Fatalf("seed %d: client %d extracted seq %d after %d",
					seed, a[i].ClientID, a[i].Seq, last)
			}
			lastSeq[a[i].ClientID] = a[i].Seq
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
	// re-admitted (and would re-run consensus harmlessly), never lost low.
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
}

func TestVerdictStrings(t *testing.T) {
	for v := Admitted; v <= BadSignature+1; v++ {
		if v.String() == "" {
			t.Fatalf("verdict %d has no string", v)
		}
	}
	if Admitted.OK() != true || AdmittedQueued.OK() != true || PoolFull.OK() {
		t.Fatal("OK() misclassifies verdicts")
	}
}

func TestAdmissionStats(t *testing.T) {
	p := NewRequestPoolLimits(Limits{})
	p.Admit(req(1, 0), 0)
	p.Admit(req(1, 0), 0) // dup
	s := p.Stats()
	if s.Admitted != 1 || s.Rejected != 1 {
		t.Fatalf("stats %+v", s)
	}
	if fmt.Sprintf("%v", DupLive) != "duplicate" {
		t.Fatal("verdict formatting")
	}
}
