package mempool

import (
	"math/rand"
	"testing"
	"time"

	"leopard/internal/types"
)

// TestEvictionBiggestFootprintFirst pins the victim-selection order under
// byte pressure: the biggest queued entry goes first (freeing the most bytes
// per lost request), ties go to the newest arrival, and pending entries —
// including the extractable head of a client with requests in flight — are
// never victims.
func TestEvictionBiggestFootprintFirst(t *testing.T) {
	t.Run("biggest-first", func(t *testing.T) {
		anchor := sizedReq(1, 0, 100)
		small1 := sizedReq(1, 10, 100)
		big := sizedReq(1, 11, 1000)
		small2 := sizedReq(1, 12, 100)
		p := poolWith(Limits{}, budgets{
			maxBytes: anchor.Size() + small1.Size() + big.Size() + small2.Size(),
		})
		p.Admit(anchor, 0)
		for _, r := range []types.Request{small1, big, small2} {
			if v := p.Admit(r, 0); v != AdmittedQueued {
				t.Fatalf("seq %d: %v", r.Seq, v)
			}
		}
		// A gap-free arrival needs room; the big middle entry must be the
		// victim even though two smaller entries are newer and older.
		if v := p.Admit(sizedReq(2, 0, 100), 0); v != Admitted {
			t.Fatalf("pressure admission: %v", v)
		}
		if got := p.Stats().Evicted; got != 1 {
			t.Fatalf("evicted %d entries, want exactly the big one", got)
		}
		if _, ok := p.byID[big.ID()]; ok {
			t.Fatal("biggest queued entry survived eviction")
		}
		for _, r := range []types.Request{small1, small2} {
			if _, ok := p.byID[r.ID()]; !ok {
				t.Fatalf("small queued seq %d evicted while a bigger entry existed", r.Seq)
			}
		}
	})

	t.Run("tie-goes-to-newest", func(t *testing.T) {
		unit := sizedReq(0, 0, 100).Size()
		p := poolWith(Limits{}, budgets{maxBytes: 4 * unit})
		p.Admit(sizedReq(1, 0, 100), 0)
		for _, seq := range []uint64{10, 11, 12} {
			p.Admit(sizedReq(1, seq, 100), 0)
		}
		if v := p.Admit(sizedReq(2, 0, 100), 0); v != Admitted {
			t.Fatalf("pressure admission: %v", v)
		}
		if _, ok := p.byID[types.RequestID{Client: 1, Seq: 12}]; ok {
			t.Fatal("size tie must evict the newest queued entry")
		}
		for _, seq := range []uint64{10, 11} {
			if _, ok := p.byID[types.RequestID{Client: 1, Seq: seq}]; !ok {
				t.Fatalf("older tied entry seq %d evicted first", seq)
			}
		}
	})

	t.Run("in-flight-head-survives", func(t *testing.T) {
		unit := sizedReq(0, 0, 100).Size()
		p := poolWith(Limits{}, budgets{maxBytes: 3 * unit})
		// Client 1 has work in flight (extracted, unconfirmed) and a pending
		// head awaiting extraction.
		p.Admit(sizedReq(1, 0, 100), 0)
		if got, _ := p.Extract(1); len(got) != 1 {
			t.Fatal("extract failed")
		}
		p.Admit(sizedReq(1, 1, 100), 0) // the pending head
		p.Admit(sizedReq(2, 0, 100), 0)
		p.Admit(sizedReq(3, 0, 100), 0)
		// Pool full of pending entries: pressure must reject the newcomer,
		// never sacrifice client 1's extractable head.
		if v := p.Admit(sizedReq(4, 0, 100), 0); v != PoolFull {
			t.Fatalf("all-pending pressure: %v, want pool-full", v)
		}
		if _, ok := p.byID[types.RequestID{Client: 1, Seq: 1}]; !ok {
			t.Fatal("pending head of in-flight client was evicted")
		}
		if p.Stats().Evicted != 0 {
			t.Fatalf("evicted %d pending entries", p.Stats().Evicted)
		}
	})

	t.Run("rate-limit-precedes-eviction", func(t *testing.T) {
		// A rate-limited client must not evict anyone: the token check runs
		// before makeRoom, so pressure from a throttled client is free. At
		// the refill boundary the same arrival admits and the eviction fires.
		unit := sizedReq(0, 0, 100).Size()
		// 1 token/ms.
		p := poolWith(Limits{RatePerSec: 1000, RateBurst: 2}, budgets{maxBytes: 4 * unit})
		p.Admit(sizedReq(1, 0, 100), 0)
		p.Admit(sizedReq(1, 5, 100), 0) // queued: the only evictable entry
		// Client 2 fills the pool and drains its 2-token burst.
		p.Admit(sizedReq(2, 0, 100), 0)
		p.Admit(sizedReq(2, 1, 100), 0)
		// Half a refill later: still throttled, and the queued entry — which
		// the byte budget would otherwise sacrifice — is untouched.
		if v := p.Admit(sizedReq(2, 2, 100), 500*time.Microsecond); v != RateLimited {
			t.Fatalf("throttled pressure: %v, want rate-limited", v)
		}
		if _, ok := p.byID[types.RequestID{Client: 1, Seq: 5}]; !ok {
			t.Fatal("rate-limited arrival evicted a queued entry")
		}
		if p.Stats().Evicted != 0 {
			t.Fatalf("rate-limited arrival drove %d evictions", p.Stats().Evicted)
		}
		// A full refill interval after the throttled attempt the token is
		// back; now the byte budget binds and the eviction happens.
		if v := p.Admit(sizedReq(2, 2, 100), 1500*time.Microsecond); v != Admitted {
			t.Fatalf("post-refill pressure admission: %v", v)
		}
		if _, ok := p.byID[types.RequestID{Client: 1, Seq: 5}]; ok {
			t.Fatal("post-refill admission did not evict the queued entry")
		}
	})
}

// TestEvictionRateLimitComposeDeterministic drives a seeded random workload
// of variable-size, rate-limited admissions through a byte-capped pool twice
// and asserts: identical verdict and extraction sequences run to run, the
// byte budget holds after every step, entries that reached pending are only
// ever removed by extraction or confirmation (never eviction), and
// rate-limited attempts never evict.
func TestEvictionRateLimitComposeDeterministic(t *testing.T) {
	type trace struct {
		verdicts    []Verdict
		extracted   []types.RequestID
		rateLimited int64
		evicted     int64
	}
	const maxBytes = 4096
	run := func(seed int64) trace {
		rng := rand.New(rand.NewSource(seed))
		p := poolWith(Limits{RatePerSec: 300, RateBurst: 2}, budgets{maxBytes: maxBytes})
		var tr trace
		pending := make(map[types.RequestID]bool) // entries seen in pending
		now := time.Duration(0)
		for step := 0; step < 3000; step++ {
			now += time.Duration(rng.Intn(1000)) * time.Microsecond
			switch op := rng.Intn(10); {
			case op < 7: // admit a variable-size request
				r := types.Request{
					ClientID: uint64(rng.Intn(4)),
					Seq:      uint64(rng.Intn(64)),
					Payload:  make([]byte, 16+rng.Intn(512)),
				}
				evictedBefore := p.Stats().Evicted
				v := p.Admit(r, now)
				tr.verdicts = append(tr.verdicts, v)
				if v == Admitted {
					pending[r.ID()] = true
				}
				if v == RateLimited && p.Stats().Evicted != evictedBefore {
					t.Fatalf("step %d: rate-limited admission evicted %d entries",
						step, p.Stats().Evicted-evictedBefore)
				}
			case op < 9: // extract a few
				got, _ := p.Extract(rng.Intn(4))
				for _, r := range got {
					delete(pending, r.ID())
					tr.extracted = append(tr.extracted, r.ID())
				}
			default: // confirm a random id
				id := types.RequestID{Client: uint64(rng.Intn(4)), Seq: uint64(rng.Intn(64))}
				p.MarkConfirmed(id)
				delete(pending, id)
			}
			if p.Bytes() > maxBytes {
				t.Fatalf("step %d: pool at %d bytes, budget %d", step, p.Bytes(), maxBytes)
			}
			for id := range pending {
				if _, ok := p.byID[id]; !ok {
					t.Fatalf("step %d: pending entry %v vanished without extract/confirm", step, id)
				}
			}
		}
		tr.rateLimited = p.Stats().RateLimited
		tr.evicted = p.Stats().Evicted
		return tr
	}

	for seed := int64(1); seed <= 3; seed++ {
		a, b := run(seed), run(seed)
		if len(a.verdicts) != len(b.verdicts) || len(a.extracted) != len(b.extracted) {
			t.Fatalf("seed %d: trace lengths differ", seed)
		}
		for i := range a.verdicts {
			if a.verdicts[i] != b.verdicts[i] {
				t.Fatalf("seed %d: verdict %d diverged: %v vs %v", seed, i, a.verdicts[i], b.verdicts[i])
			}
		}
		for i := range a.extracted {
			if a.extracted[i] != b.extracted[i] {
				t.Fatalf("seed %d: extraction %d diverged: %v vs %v", seed, i, a.extracted[i], b.extracted[i])
			}
		}
		if a.rateLimited == 0 || a.evicted == 0 {
			t.Fatalf("seed %d: workload exercised %d rate limits and %d evictions — both must fire",
				seed, a.rateLimited, a.evicted)
		}
	}
}
