package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Inc/Add are lock-free and
// allocation-free.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time float value. Set/Add are lock-free and
// allocation-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// entry is one registered series.
type entry struct {
	name string // full series name, possibly with a {label="..."} suffix
	base string // metric family name (name up to any '{')
	help string
	typ  string // "counter" | "gauge"
	c    *Counter
	g    *Gauge
}

// Registry holds named metrics and renders them as Prometheus text
// exposition or a JSON snapshot. Registration methods are idempotent by
// series name: registering an existing name returns the existing metric, so
// scrape-time re-binding is cheap and safe.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*entry
	byBase  map[string][]*entry
	baseSeq []string // family emission order (first registration wins)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry), byBase: make(map[string][]*entry)}
}

func baseOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) register(name, help, typ string) *entry {
	e := r.byName[name]
	if e != nil {
		return e
	}
	e = &entry{name: name, base: baseOf(name), help: help, typ: typ}
	r.byName[name] = e
	if _, seen := r.byBase[e.base]; !seen {
		r.baseSeq = append(r.baseSeq, e.base)
	}
	r.byBase[e.base] = append(r.byBase[e.base], e)
	return e
}

// Counter registers (or fetches) a counter series. The name may carry a
// fixed label set, e.g. `leopard_events_total{kind="sigma1_cert"}`.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.register(name, help, "counter")
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.register(name, help, "gauge")
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// snapshot returns families in registration order under the lock.
func (r *Registry) snapshot() [][]*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]*entry, 0, len(r.baseSeq))
	for _, base := range r.baseSeq {
		out = append(out, append([]*entry(nil), r.byBase[base]...))
	}
	return out
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (e *entry) value() float64 {
	switch {
	case e.c != nil:
		return float64(e.c.Value())
	case e.g != nil:
		return e.g.Value()
	}
	return 0
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, family := range r.snapshot() {
		head := family[0]
		if head.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", head.base, strings.ReplaceAll(head.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", head.base, head.typ)
		for _, e := range family {
			fmt.Fprintf(bw, "%s %s\n", e.name, formatValue(e.value()))
		}
	}
	return bw.Flush()
}

// Snapshot returns the registry as a flat name→value map, ready for JSON
// encoding — this is what leopard-node's /status serves, so the status body
// is generated from the registry rather than hand-maintained.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, family := range r.snapshot() {
		for _, e := range family {
			out[e.name] = e.value()
		}
	}
	return out
}

// NumSeries returns the number of registered series.
func (r *Registry) NumSeries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName)
}
