package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs a short n4-small window untraced and traced: non-zero
// goodput, equal execution states (part of the run's own checks) and every
// declared metric present with a finite value.
func TestSmoke(t *testing.T) {
	spec, _ := findWorkload("n4-small")
	for _, traced := range []bool{false, true} {
		res, err := runOnce(runOptions{
			spec: spec, seed: 7, window: 2 * time.Second, warmup: 500 * time.Millisecond,
			traced: traced, tmpRoot: t.TempDir(), setups: 1,
		})
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		for _, p := range res.Problems {
			// Two seconds under the race detector on a busy machine do not
			// always reach the thousand samples a 99th percentile needs.
			if !strings.Contains(p, "latency samples") {
				t.Errorf("traced=%v: run not correct: %s", traced, p)
			}
		}
		if res.Info["goodput_rps"] <= 0 || res.Failed != 0 {
			t.Errorf("traced=%v: goodput %v, failed %d", traced, res.Info["goodput_rps"], res.Failed)
		}
		// A closed loop's goodput is reported at the reference machine speed.
		if speed := res.Info["machine_speed"]; speed <= 0 ||
			math.Abs(res.Info["goodput_rps"]*speed/res.Info["measured_goodput_rps"]-1) > 1e-9 {
			t.Errorf("traced=%v: machine speed %v, goodput %v, measured %v", traced, speed, res.Info["goodput_rps"], res.Info["measured_goodput_rps"])
		}
		for _, d := range defsFor(res.Trace) {
			v, ok := res.Metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("traced=%v: metric %s missing or not finite (%v)", traced, d.Name, v)
			}
		}
		if len(res.Metrics) != len(defsFor(res.Trace)) {
			t.Errorf("traced=%v: %d metrics reported, %d declared", traced, len(res.Metrics), len(defsFor(res.Trace)))
		}
		if !traced {
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}
			continue
		}
		// How many of the n reply signatures of a request fall inside the
		// window depends on how far the slowest replicas lag (acceptance
		// needs only f+1), so only their presence is asserted.
		if res.Metrics["budget.coverage_frac"] <= 0 || res.Metrics["crypto.sign_calls_per_req"] <= 0 || res.Info["spans"] <= 0 {
			t.Errorf("traced run recorded no spans: coverage %v, signs per request %v, %v spans",
				res.Metrics["budget.coverage_frac"], res.Metrics["crypto.sign_calls_per_req"], res.Info["spans"])
		}
		if res.Metrics["storage.append_us_per_block"] != 0 || res.Metrics["storage.vote_syncs_per_block"] != 0 {
			t.Errorf("storage metrics are non-zero on an in-memory workload")
		}
		if _, err := resultLine(res); err != nil {
			t.Errorf("result line: %v", err)
		}
	}
}

// TestCalibrator: bursts run while the calibrator is open, none after
// close, and the speed between two marks is refBurst over the mean burst.
func TestCalibrator(t *testing.T) {
	c, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	from := c.mark()
	for deadline := time.Now().Add(5 * time.Second); c.mark().bursts < from.bursts+4 && time.Now().Before(deadline); {
		time.Sleep(calibratePeriod)
	}
	to := c.mark()
	c.close()
	if to.bursts < from.bursts+4 || c.mark().bursts > to.bursts+1 {
		t.Fatalf("bursts: %d at first, %d after waiting, %d after close", from.bursts, to.bursts, c.mark().bursts)
	}
	if speed := speedBetween(from, to); speed < 0.05 || speed > 20 {
		t.Errorf("machine speed %v: a burst takes %v here, refBurst is %v", speed, time.Duration((to.ns-from.ns)/(to.bursts-from.bursts)), refBurst)
	}
	if got := speedBetween(calMark{ns: 1000, bursts: 10}, calMark{ns: 1000 + 4*int64(refBurst), bursts: 12}); got != 0.5 {
		t.Errorf("two bursts in four times refBurst: speed %v, want 0.5", got)
	}
	if speedBetween(to, to) != 0 {
		t.Error("no burst between the marks should give speed 0")
	}
}

func TestPercentile(t *testing.T) {
	vals := func() []float64 { return []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} }
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {10, 1}, {90, 9}, {100, 10}} {
		if got := percentile(vals(), tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// TestSeededInputs: the same seed gives the same open-loop due times and
// the same payloads; another seed gives others.
func TestSeededInputs(t *testing.T) {
	a := openSchedule(11, 2000, 3*time.Second)
	b := openSchedule(11, 2000, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different open-loop schedules")
	}
	if reflect.DeepEqual(a, openSchedule(12, 2000, 3*time.Second)) {
		t.Fatal("different seeds, same open-loop schedule")
	}
	if n := len(a); n < 5500 || n > 6500 {
		t.Errorf("%d arrivals in 3s at 2000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("due times not sorted")
		}
	}
	spec, _ := findWorkload("n4-small")
	g1 := &generator{spec: spec, seed: 11, pool: payloadPool(11, spec.Payload)}
	g2 := &generator{spec: spec, seed: 11, pool: payloadPool(11, spec.Payload)}
	g3 := &generator{spec: spec, seed: 12, pool: payloadPool(12, spec.Payload)}
	for client := uint64(0); client < 4; client++ {
		for seq := uint64(0); seq < 4; seq++ {
			p := g1.payload(client, seq)
			if len(p) != spec.Payload || !bytes.Equal(p, g2.payload(client, seq)) {
				t.Fatalf("payload(%d,%d) not reproducible", client, seq)
			}
			if bytes.Equal(p, g3.payload(client, seq)) {
				t.Fatalf("payload(%d,%d) does not depend on the seed", client, seq)
			}
		}
	}
}

// TestSelfTime: on a synthetic nest, self time is the span minus what its
// children cover, at every depth.
func TestSelfTime(t *testing.T) {
	r := &loopRecorder{}
	r.beginAt(kDeliver, 100) // parent 100..1000
	r.beginAt(kVerifyShare, 200)
	r.endAt(300) // child 100
	r.beginAt(kReply, 400)
	r.beginAt(kSign, 450)
	r.endAt(650) // grandchild 200
	r.endAt(700) // child 300, self 100
	r.endAt(1000)
	want := map[spanKind][2]uint32{ // kind -> dur, self
		kVerifyShare: {100, 100},
		kSign:        {200, 200},
		kReply:       {300, 100},
		kDeliver:     {900, 500},
	}
	seen := 0
	r.spans.each(func(sp span) {
		seen++
		w, ok := want[sp.kind]
		if !ok || sp.dur != w[0] || sp.self != w[1] {
			t.Errorf("%s: dur %d self %d, want %v", kindNames[sp.kind], sp.dur, sp.self, w)
		}
	})
	if seen != len(want) || r.depth != 0 {
		t.Errorf("%d spans recorded, depth %d", seen, r.depth)
	}

	rec := &recording{loops: []*loopRecorder{r}, sides: []*sideRecorder{{}}}
	tot := rec.reduce(0, 2000)[0]
	if tot[kDeliver].self != 500 || tot[kDeliver].cpuSelf != 500 || tot[kSign].count != 1 {
		t.Errorf("reduce: %+v", tot[kDeliver])
	}
	if got := rec.reduce(150, 2000)[0][kDeliver].count; got != 0 {
		t.Errorf("a span that started before the window was counted")
	}
}

// TestWinsorized: one span that sat preempted for 50 ms among many 25 us
// ones is counted at the cap in the processor-time estimate only.
func TestWinsorized(t *testing.T) {
	r := &loopRecorder{}
	at := int64(0)
	for i := 0; i < 1000; i++ {
		d := int64(25_000)
		if i == 500 {
			d = 50_000_000
		}
		r.beginAt(kSign, at)
		r.endAt(at + d)
		at += d
	}
	rec := &recording{loops: []*loopRecorder{r}, sides: []*sideRecorder{{}}}
	tot := rec.reduce(0, at)[0][kSign]
	if tot.dur != 999*25_000+50_000_000 {
		t.Errorf("wall sum %d", tot.dur)
	}
	if want := int64(999*25_000 + winsorFloor); tot.cpuDur != want {
		t.Errorf("cpu estimate %d, want %d", tot.cpuDur, want)
	}
}

// syntheticSet is a run set of five runs per workload whose values lie
// within jitter of a base, times scale.
func syntheticSet(jitter float64, scale map[string]float64) runSet {
	base := map[string]float64{
		"goodput_rps": 10000, "latency_p50_ms": 100, "latency_mean_ms": 105, "latency_p99_ms": 150,
		"cpu_us_per_req": 190, "failed_frac": 0.0004, "failover_s": 2.1, "setup_s": 0.06,
	}
	var set runSet
	for _, spec := range workloads {
		for i := 0; i < 5; i++ {
			r := &runResult{Workload: spec.Name, Metrics: map[string]float64{}, Info: map[string]float64{}}
			for _, gt := range gates {
				if gt.Only != "" && gt.Only != spec.Name {
					continue
				}
				v := base[gt.Name] * (1 + jitter*float64(i-2)/2)
				if f, ok := scale[gt.Name]; ok {
					v *= f
				}
				// Declared metrics and the other gates sit where a run puts them.
				if gt.Name == "goodput_rps" || gt.Name == "setup_s" {
					r.Metrics[gt.Name] = v
				} else {
					r.Info[gt.Name] = v
				}
			}
			set = append(set, r)
		}
	}
	return set
}

// TestCompare: equal sets pass with one row per workload and gate; a 20%
// regression is marked on every workload where the gate's bound is below
// it; a change past the bound but inside the sets' own spread is
// unresolved, not a regression.
func TestCompare(t *testing.T) {
	var out bytes.Buffer
	steady := syntheticSet(0.004, nil)
	if compareSets(&out, steady, syntheticSet(0.004, nil)) {
		t.Fatalf("equal sets reported as regressed:\n%s", out.String())
	}
	rows, want := strings.Count(out.String(), "\n")-1, 0
	for _, gt := range gates {
		if gt.Only == "" {
			want += len(workloads)
		} else {
			want++
		}
	}
	if rows != want {
		t.Errorf("%d rows, want %d:\n%s", rows, want, out.String())
	}
	for _, tc := range []struct {
		metric string
		factor float64
		marked int
	}{
		{"goodput_rps", 0.8, len(workloads)},
		{"latency_p99_ms", 1.2, len(workloads)},
		{"cpu_us_per_req", 1.2, len(workloads)},
		{"failover_s", 1.2, 1},
		{"failed_frac", 10, len(workloads)}, // 0.0004 -> 0.004: past +0.002
		{"setup_s", 1.2, 0},                 // bound 25%
		{"goodput_rps", 1.2, 0},             // an improvement
		{"latency_p50_ms", 0.8, 0},
	} {
		out.Reset()
		got := compareSets(&out, steady, syntheticSet(0.004, map[string]float64{tc.metric: tc.factor}))
		if n := strings.Count(out.String(), "REGRESSION"); got != (tc.marked > 0) || n != tc.marked {
			t.Errorf("%s x%v: %d rows marked (regressed=%v), want %d:\n%s", tc.metric, tc.factor, n, got, tc.marked, out.String())
		}
	}
	out.Reset()
	noisy := syntheticSet(0.1, nil) // quartiles 15% apart
	if compareSets(&out, noisy, syntheticSet(0.1, map[string]float64{"goodput_rps": 0.9})) {
		t.Errorf("a 10%% change inside a 15%% spread reported as a regression:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "unresolved\n"); n != len(workloads) {
		t.Errorf("%d rows unresolved, want %d:\n%s", n, len(workloads), out.String())
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON: the contract file at the repository root declares the
// workloads and metrics of the catalogs in spec.go, in their order, and is
// inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(buf))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want 6", len(keys))
	}
	type declared struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds || !reflect.DeepEqual(doc.Paths, []string{"cmd/leopard-bench"}) ||
		!reflect.DeepEqual(doc.Command, []string{"bash", "cmd/leopard-bench/run.sh"}) {
		t.Errorf("run_seconds %d, paths %v, command %v", doc.RunSeconds, doc.Paths, doc.Command)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q outside the contract", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(doc.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in the catalog", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, catalog %q (or their reasons differ)", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []declared, want []metricDef, most int) {
		if len(got) != len(want) || len(want) < 1 || len(want) > most {
			t.Fatalf("%d %s metrics declared, %d in the catalog", len(got), kind, len(want))
		}
		for i, m := range want {
			check("metric", m.Name)
			if got[i] != (declared{m.Name, m.Unit, m.Better, m.Bound}) {
				t.Errorf("%s metric %d: declared %+v, catalog %+v", kind, i, got[i], m)
			}
			if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, 16)
	same("per-layer", doc.PerLayer, perLayer, 128)
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// TestOneFileTouchesTheProgram: cluster.go is the only file here that
// imports the program's packages.
func TestOneFileTouchesTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "leopard/") && name != "cluster.go" {
				t.Errorf("%s imports %s: calls into the program belong in cluster.go", name, imp.Path.Value)
			}
		}
	}
}
