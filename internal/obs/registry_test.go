package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("leopard_confirmed_total", "confirmed requests").Add(42)
	r.Gauge("leopard_view", "current view").SetInt(3)
	r.Gauge("leopard_ratio", "").Set(0.25)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP leopard_confirmed_total confirmed requests",
		"# TYPE leopard_confirmed_total counter",
		"leopard_confirmed_total 42",
		"# TYPE leopard_view gauge",
		"leopard_view 3",
		"leopard_ratio 0.25",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A metric with no help string must still carry a TYPE line.
	if strings.Contains(out, "# HELP leopard_ratio") {
		t.Errorf("unexpected HELP for help-less metric:\n%s", out)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("re-registering the same counter must return the same instance")
	}
	g1 := r.Gauge("g", "")
	g2 := r.Gauge("g", "")
	if g1 != g2 {
		t.Fatal("re-registering the same gauge must return the same instance")
	}
	if n := r.NumSeries(); n != 2 {
		t.Fatalf("NumSeries = %d, want 2", n)
	}
}

func TestRegistryLabeledSeriesGroupedUnderOneFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter(`ev_total{kind="a"}`, "events").Inc()
	r.Counter(`other_metric`, "").Inc()
	r.Counter(`ev_total{kind="b"}`, "events").Add(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// All ev_total series must be contiguous (one family block) even though
	// another metric was registered between them.
	aIdx := strings.Index(out, `ev_total{kind="a"} 1`)
	bIdx := strings.Index(out, `ev_total{kind="b"} 2`)
	oIdx := strings.Index(out, "other_metric 1")
	if aIdx < 0 || bIdx < 0 || oIdx < 0 {
		t.Fatalf("missing series:\n%s", out)
	}
	if !(aIdx < bIdx && (oIdx < aIdx || oIdx > bIdx)) {
		t.Fatalf("labeled series not grouped into one family block:\n%s", out)
	}
	if strings.Count(out, "# TYPE ev_total counter") != 1 {
		t.Fatalf("want exactly one TYPE line for ev_total:\n%s", out)
	}
}

// TestRegistryConcurrentIncrements exercises the lock-free hot paths under
// the race detector: CI runs this package with -race.
func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				// Concurrent re-registration must also be safe.
				r.Counter("c_total", "").Add(0)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5 (negative adds ignored)", c.Value())
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	r.Gauge("b", "").Set(1.5)
	snap := r.Snapshot()
	if snap["a_total"] != 7.0 {
		t.Fatalf("a_total = %v, want 7", snap["a_total"])
	}
	if snap["b"] != 1.5 {
		t.Fatalf("b = %v, want 1.5", snap["b"])
	}
}
