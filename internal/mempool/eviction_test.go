package mempool

import (
	"math/rand"
	"testing"
	"time"

	"leopard/internal/types"
)

// TestEvictionRateLimitComposeDeterministic drives a seeded random workload
// of variable-size, rate-limited admissions through a byte-capped pool twice
// and asserts: identical verdict and extraction sequences run to run, the
// byte budget holds after every step, and admitted entries are only ever
// removed by extraction or confirmation, never evicted.
func TestEvictionRateLimitComposeDeterministic(t *testing.T) {
	type trace struct {
		verdicts    []Verdict
		extracted   []types.RequestID
		rateLimited int64
		poolFull    int
	}
	const maxBytes = 1024
	run := func(seed int64) trace {
		rng := rand.New(rand.NewSource(seed))
		p := poolWith(Limits{RatePerSec: 300, RateBurst: 2}, budgets{maxBytes: maxBytes})
		var tr trace
		pending := make(map[types.RequestID]bool) // admitted, not yet extracted or confirmed
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
				v := p.Admit(r, now)
				tr.verdicts = append(tr.verdicts, v)
				switch v {
				case Admitted:
					pending[r.ID()] = true
				case PoolFull:
					tr.poolFull++
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
		if a.rateLimited == 0 || a.poolFull == 0 {
			t.Fatalf("seed %d: workload exercised %d rate limits and %d pool-full refusals — both must fire",
				seed, a.rateLimited, a.poolFull)
		}
	}
}
