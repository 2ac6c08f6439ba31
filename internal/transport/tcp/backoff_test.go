package tcp

import (
	"math/rand"
	"testing"
	"time"

	"leopard/internal/transport"
)

// TestNextDialDelayLadder checks the exponential shape: intervals double
// from DialRetry up to the cap and stay there, and every delay is its
// interval stretched by less than half (the jitter bound).
func TestNextDialDelayLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := 500 * time.Millisecond
	max := 8 * time.Second
	wantCur := []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second,
		4 * time.Second, 8 * time.Second, 8 * time.Second, 8 * time.Second,
	}
	for i, want := range wantCur {
		if cur != want {
			t.Fatalf("step %d: interval %v, want %v", i, cur, want)
		}
		var delay time.Duration
		delay, cur = nextDialDelay(cur, max, rng)
		if delay < want || delay >= want+want/2 {
			t.Fatalf("step %d: delay %v outside [%v, %v)", i, delay, want, want+want/2)
		}
	}
}

// TestNextDialDelayDeterministic: identical seeds replay the identical
// jittered schedule, so seeded cluster runs reconnect reproducibly.
func TestNextDialDelayDeterministic(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		cur := 250 * time.Millisecond
		var out []time.Duration
		for i := 0; i < 12; i++ {
			var d time.Duration
			d, cur = nextDialDelay(cur, 4*time.Second, rng)
			out = append(out, d)
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %v vs %v with identical seeds", i, a[i], b[i])
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical 12-step schedule; jitter inert?")
	}
}

// TestDialBackoffConfigDefaults pins the validate() defaults: max floors
// at DialRetry.
func TestDialBackoffConfigDefaults(t *testing.T) {
	cfg := Config{Self: 2, Addrs: []string{"a", "b", "c"}, Codec: nopCodec{}}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DialRetryMax != 8*time.Second {
		t.Errorf("DialRetryMax default %v, want 8s", cfg.DialRetryMax)
	}

	cfg = Config{Self: 0, Addrs: []string{"a"}, Codec: nopCodec{},
		DialRetry: 10 * time.Second, DialRetryMax: time.Second}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DialRetryMax != 10*time.Second {
		t.Errorf("DialRetryMax %v not floored at DialRetry 10s", cfg.DialRetryMax)
	}
}

type nopCodec struct{}

func (nopCodec) Encode(transport.Message) ([]byte, error) { return nil, nil }
func (nopCodec) Decode([]byte) (transport.Message, error) { return nil, nil }
