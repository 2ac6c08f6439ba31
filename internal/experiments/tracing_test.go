package experiments

import (
	"bytes"
	"testing"
	"time"

	"leopard/internal/obs"
	"leopard/internal/types"
)

// withTracing installs a fresh process collector for one test and returns
// it, restoring the previous state on cleanup.
func withTracing(t *testing.T) *obs.Collector {
	t.Helper()
	prev := Tracing
	col := obs.NewCollector(obs.DefaultRingCap)
	Tracing = col
	t.Cleanup(func() { Tracing = prev })
	return col
}

// TestChaosTraceDeterministic is the trace determinism gate: two
// identically-seeded traced chaos runs must export byte-identical Chrome
// trace JSON. Any wall-clock read, map-order dependence or goroutine race
// on the emit path shows up here as a byte diff.
func TestChaosTraceDeterministic(t *testing.T) {
	run := func() []byte {
		col := withTracing(t)
		p := defaultChaosParams()
		q, err := types.NewQuorumParams(4)
		if err != nil {
			t.Fatal(err)
		}
		plan := chaosPlans(q, p.seed)[0]
		r, err := chaosOnce(q, plan, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Height == 0 {
			t.Fatalf("plan %s made no progress", plan.Name)
		}
		var buf bytes.Buffer
		if err := col.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatalf("identically-seeded traced runs exported different traces (%d vs %d bytes)",
			len(first), len(second))
	}
	if !bytes.Contains(first, []byte("request_admitted")) ||
		!bytes.Contains(first, []byte("block_executed")) {
		t.Fatalf("trace export missing lifecycle events:\n%.400s", first)
	}
}

// TestChaosDigestUnchangedByTracing asserts tracing is purely
// observational: the n=8 chaos run digest — heights, view changes, vote-log
// counters and the traffic signature of every schedule — is byte-identical
// with and without a tracer attached. In virtual time this is also the
// "≤5% overhead" claim in its strongest form: a traced run takes exactly
// the same simulated schedule.
func TestChaosDigestUnchangedByTracing(t *testing.T) {
	p := defaultChaosParams()
	prev := Tracing
	Tracing = nil
	untraced, err := ChaosRunDigest(8, p)
	Tracing = prev
	if err != nil {
		t.Fatal(err)
	}
	col := withTracing(t)
	traced, err := ChaosRunDigest(8, p)
	if err != nil {
		t.Fatal(err)
	}
	if untraced != traced {
		t.Fatalf("tracing changed the run:\n  untraced: %s\n  traced:   %s", untraced, traced)
	}
	total := 0
	for _, ts := range col.Runs() {
		for i := 0; i < ts.Size(); i++ {
			total += len(ts.Tracer(i).Events())
		}
	}
	if total == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestViolationPostMortemDumpsTrace induces an invariant violation on a
// traced cluster and asserts the checker captured a non-empty per-replica
// event history at that moment.
func TestViolationPostMortemDumpsTrace(t *testing.T) {
	withTracing(t)
	const n = 4
	p := defaultChaosParams()
	c, ic, _, err := chaosCluster(n, p, "postmortem", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	scheduleLoad(c, []types.ReplicaID{1, 2}, p.dbRequests, p.loadEvery, 400*time.Millisecond)
	c.Net.Run(600 * time.Millisecond)
	if ic.PostMortem() != "" {
		t.Fatalf("post-mortem captured before any violation:\n%s", ic.PostMortem())
	}
	ic.Violate("induced violation for post-mortem test")
	pm := ic.PostMortem()
	if pm == "" {
		t.Fatal("violation on a traced cluster produced no post-mortem")
	}
	for i := 0; i < n; i++ {
		if !bytes.Contains([]byte(pm), []byte("replica "+string(rune('0'+i))+":")) {
			t.Fatalf("post-mortem missing replica %d section:\n%s", i, pm)
		}
	}
	if !bytes.Contains([]byte(pm), []byte("block_executed")) {
		t.Fatalf("post-mortem shows no executed blocks:\n%s", pm)
	}
}
