package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runOptions selects one run of one workload.
type runOptions struct {
	spec     workloadSpec
	seed     int64
	window   time.Duration
	traced   bool
	traceOut string        // with traced: write the spans here as Chrome JSON
	tmpRoot  string        // WAL directories are created (and removed) under it
	warmup   time.Duration // zero means warmupTime
	setups   int           // how many times to set the cluster up (the last one is used)
	noCrash  bool          // skip the crash schedule (reference run of a traced crash run)
}

// runResult is what one run measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info holds values printed for the reader but not declared as
	// metrics: sample counts, means next to the reported medians.
	Info   map[string]float64 `json:"info,omitempty"`
	budget []budgetRow
	slices []float64 // accepted requests per second, per slice of the window
}

type budgetRow struct {
	layer string
	us    float64
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// mark is the state of the run at a one-second boundary of the window; the
// per-second acceptance counts are printed so that a stall is visible.
type mark struct {
	at      time.Duration
	cpuUs   float64
	accepts int
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runOnce sets the cluster up, warms it, measures one window and checks
// the outcome.
func runOnce(opt runOptions) (*runResult, error) {
	spec := opt.spec
	res := &runResult{
		Workload: spec.Name, Seed: opt.seed, Seconds: opt.window.Seconds(),
		Metrics: map[string]float64{}, Info: map[string]float64{},
	}
	if opt.traced {
		res.Trace = 1
	}
	if opt.setups < 1 {
		opt.setups = 1
	}
	if opt.warmup <= 0 {
		opt.warmup = warmupTime
	}
	crash := spec.Crash && !opt.noCrash

	// Set-up, repeated: construction of the cluster up to the first reply
	// certificate (keys, suites, WAL open, listen, dial, one agreement).
	var (
		c      *cluster
		g      *generator
		rec    *recording
		walDir string
		setups []float64
	)
	cleanup := func() {
		if c != nil {
			c.close()
			c = nil
		}
		if walDir != "" {
			os.RemoveAll(walDir)
		}
	}
	defer func() { cleanup() }()
	for k := 0; k < opt.setups; k++ {
		cleanup()
		began := time.Now()
		walDir = ""
		if spec.WAL {
			walDir = filepath.Join(opt.tmpRoot, fmt.Sprintf("%s-%d-%d", spec.Name, os.Getpid(), k))
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
			if err := os.MkdirAll(walDir, 0o755); err != nil {
				return nil, err
			}
		}
		rec = nil
		if opt.traced {
			rec = newRecording(spec.N)
		}
		box := newMailbox()
		var err error
		c, err = newCluster(clusterSpec{
			n: spec.N, rotate: spec.Rotate, datablockSize: spec.DatablockSize, bftBlockSize: spec.BFTBlockSize,
			clients: spec.Sessions, walDir: walDir, seed: []byte(fmt.Sprintf("leopard-bench-%d", opt.seed)), rec: rec,
		}, box.putReply)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		g = newGenerator(spec, opt.seed, c, box, opt.traced || crash)
		s0, ok := c.snapshot(0)
		if !ok {
			return nil, fmt.Errorf("set-up: replica 0 did not start")
		}
		g.setHomes(s0.Leader)
		if !g.probe(15 * time.Second) {
			return nil, fmt.Errorf("set-up: no reply certificate within 15s")
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	leader := g.leader
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	// Warm-up, then the window in one-second slices.
	g.startTraffic(opt.warmup, opt.window)
	type action struct {
		at   time.Duration
		kind int // 0 slice mark, 1 crash, 2 restart
	}
	var plan []action
	for at := time.Second; at < opt.window; at += time.Second {
		plan = append(plan, action{g.t0 + at, 0})
	}
	if crash {
		plan = append(plan, action{g.t0 + opt.window/3, 1}, action{g.t0 + 2*opt.window/3, 2})
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })

	g.pump(g.t0)
	cal0 := cal.mark()
	g.sample(tagBegin)
	var mem0, mem1 runtime.MemStats
	gc0 := 0.0
	if opt.traced {
		runtime.ReadMemStats(&mem0)
		gc0 = gcCPUSeconds()
	}
	marks := []mark{{g.clock(), cpuMicros(), len(g.accepts)}}
	var crashAt, restartAt time.Duration
	for _, a := range plan {
		g.pump(a.at)
		switch a.kind {
		case 0:
			marks = append(marks, mark{g.clock(), cpuMicros(), len(g.accepts)})
		case 1:
			crashAt = g.clock()
			c.stop(leader)
		case 2:
			if err := c.restart(leader); err != nil {
				return nil, err
			}
			restartAt = g.clock()
			g.noteRestart(leader)
		}
	}
	g.pump(g.t1)
	cal1 := cal.mark()
	marks = append(marks, mark{g.clock(), cpuMicros(), len(g.accepts)})
	g.sample(tagEnd)
	gc1 := 0.0
	if opt.traced {
		runtime.ReadMemStats(&mem1)
		gc1 = gcCPUSeconds()
	}
	g.stopTraffic()

	// Drain: every request gets failAfter from its due time.
	for limit := g.t1 + failAfter + time.Second; g.clock() < limit; {
		if g.inFlight() == 0 && len(g.snaps[tagEnd]) >= countUp(c) && g.restarted < 0 {
			break
		}
		g.pump(g.clock() + 10*time.Millisecond)
	}
	g.closeBooks()
	res.Attempted, res.Failed = g.attempted, g.failed
	if res.Attempted < 1 {
		res.Attempted = 1
		res.problem("no request was due inside the window")
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac > maxFailedFrac {
		res.problem("%d of %d requests failed (%.4f, at most %.3f allowed)", res.Failed, res.Attempted, frac, maxFailedFrac)
	}

	final := checkOutcome(res, c, g, crash)
	heapLive := 0.0
	if opt.traced {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heapLive = float64(m.HeapAlloc) / 1e6
	}
	evictions, drops := c.transportTotals()
	stageMs, events, parks, overflow := c.traceSummary()
	if opt.traceOut != "" && rec != nil {
		if err := writeTraces(opt.traceOut, rec, c); err != nil {
			return nil, err
		}
	}
	full := make([]bool, spec.N)
	for i := range full {
		full[i] = c.full(i)
	}
	keys := c // close() keeps the generator-side keys usable
	cleanup()
	verifyCerts(res, keys, g)

	// End-to-end figures of the window.
	accepted := float64(len(g.accepts))
	window := (marks[len(marks)-1].at - marks[0].at).Seconds()
	cpuTotal := marks[len(marks)-1].cpuUs - marks[0].cpuUs
	for i := 1; i < len(marks); i++ {
		n := float64(marks[i].accepts - marks[i-1].accepts)
		res.slices = append(res.slices, n/(marks[i].at-marks[i-1].at).Seconds())
	}
	lats := make([]float64, len(g.accepts))
	for i, a := range g.accepts {
		lats[i] = float64(a.lat) / float64(time.Millisecond)
	}
	if len(lats) == 0 {
		return res, fmt.Errorf("no request was accepted inside the window (%s)", strings.Join(res.Problems, "; "))
	}
	if beyond(len(lats), 99) < 10 {
		res.problem("only %d latency samples: fewer than 10 beyond the 99th percentile", len(lats))
	}
	// A closed loop goes as fast as the machine lets it, so its rates and
	// times are reported at the reference machine speed (calib.go). An open
	// loop's rate is its schedule's and its latency mostly the protocol's
	// timers: both as measured.
	speed := speedBetween(cal0, cal1)
	if speed <= 0 {
		return res, fmt.Errorf("the calibrator measured nothing during the window")
	}
	scale := speed
	if spec.OpenRate > 0 {
		scale = 1
	}
	for i := range lats {
		lats[i] *= scale
	}
	goodput := accepted / window / scale
	cpuPerReq := cpuTotal / accepted
	res.Info["machine_speed"] = speed
	res.Info["measured_goodput_rps"] = accepted / window
	res.Info["latency_samples"] = accepted
	res.Info["late_accepted"] = float64(g.lateAccepted)
	res.Info["goodput_rps"] = goodput
	res.Info["nproc"], res.Info["gomaxprocs"] = float64(runtime.NumCPU()), float64(runtime.GOMAXPROCS(0))
	failover := 0.0
	if crash {
		failover = longestGap(g.accepts, crashAt, restartAt).Seconds()
		if failover <= 0 || g.catchup <= 0 {
			res.problem("crash schedule: failover %.3fs, catch-up %.3fs (both must be measured)", failover, g.catchup.Seconds())
		}
	}

	if !opt.traced {
		res.Metrics["goodput_rps"] = goodput
		res.Metrics["latency_p50_ms"] = percentile(lats, 50)
		res.Metrics["setup_s"] = median(setups)
		// The gates of -compare that BENCHMARK.json does not declare.
		res.Info["latency_mean_ms"] = mean(lats)
		res.Info["latency_p99_ms"] = percentile(lats, 99)
		res.Info["cpu_us_per_req"] = cpuPerReq * scale
		res.Info["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
		if crash {
			res.Info["failover_s"] = failover
			res.Info["catchup_s"] = g.catchup.Seconds()
		}
		res.Info["latency_p95_ms"] = percentile(lats, 95)
		res.Correct = len(res.Problems) == 0
		return res, nil
	}

	// Per-layer figures of the traced window.
	offset := rec.epoch.Sub(g.start)
	from, to := int64(g.t0-offset), int64(g.t1-offset)
	L := layerInputs{
		spec: spec, res: res, g: g, rec: rec, totals: rec.reduce(from, to), from: from, to: to,
		accepted: accepted, window: window, cpuPerReq: cpuPerReq, leader: leader,
		begin: byReplica(g.snaps[tagBegin], spec.N), end: byReplica(g.snaps[tagEnd], spec.N), final: final, full: full,
		stageMs: stageMs, events: events, parks: parks, evictions: evictions, drops: drops,
		failover: failover, heapLive: heapLive, speed: speed,
		mallocs: float64(mem1.Mallocs - mem0.Mallocs), allocBytes: float64(mem1.TotalAlloc - mem0.TotalAlloc),
		gcCPUUs: (gc1 - gc0) * 1e6, cpuTotalUs: cpuTotal,
	}
	if overflow {
		fmt.Fprintln(os.Stderr, "leopard-bench: an event ring overflowed; stage waits cover the retained tail only")
	}
	if err := perLayerMetrics(&L); err != nil {
		return nil, err
	}
	res.Info["latency_p50_ms"] = percentile(lats, 50)
	res.Metrics["client.latency_mean_ms"] = mean(lats)
	res.Metrics["client.latency_p95_ms"] = percentile(lats, 95)
	res.Metrics["client.latency_p99_ms"] = percentile(lats, 99)
	res.Info["spans"] = float64(rec.spanCount())
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func countUp(c *cluster) int {
	n := 0
	for i := 0; i < c.n(); i++ {
		if c.up(i) {
			n++
		}
	}
	return n
}

func byReplica(snaps []taggedSnap, n int) []*replicaSnap {
	out := make([]*replicaSnap, n)
	for i := range snaps {
		out[snaps[i].replica] = &snaps[i].snap
	}
	return out
}

// checkOutcome waits for the live replicas to reach one execution frontier
// and checks what must hold on every run. It returns the final snapshots.
func checkOutcome(res *runResult, c *cluster, g *generator, crash bool) []*replicaSnap {
	final := make([]*replicaSnap, c.n())
	settled := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !settled; {
		settled = true
		var ref *replicaSnap
		for i := 0; i < c.n(); i++ {
			final[i] = nil
			if !c.up(i) {
				continue
			}
			s, ok := c.snapshot(i)
			if !ok {
				res.problem("replica %d stopped during the run", i)
				continue
			}
			final[i] = &s
			if ref == nil {
				ref = &s
			} else if s.ExecutedTo != ref.ExecutedTo {
				settled = false
			}
		}
		if !settled {
			time.Sleep(20 * time.Millisecond)
		}
	}
	var ref *replicaSnap
	jumped := 0
	minConfirmed := int64(math.MaxInt64)
	for i, s := range final {
		if s == nil {
			continue
		}
		if ref == nil {
			ref = s
		}
		if !settled {
			res.problem("replica %d ended at ExecutedTo=%d, replica frontiers did not meet within 10s", i, s.ExecutedTo)
		} else if s.State != ref.State {
			res.problem("replica %d: ExecutionState differs at ExecutedTo=%d", i, s.ExecutedTo)
		}
		if !crash && s.ViewChanges > 0 {
			res.problem("replica %d: %d view changes in a run without faults", i, s.ViewChanges)
		}
		if !c.full(i) {
			continue
		}
		if s.ExecRequests != s.ConfirmedRequests {
			res.problem("replica %d: executor saw %d requests, ConfirmedRequests=%d", i, s.ExecRequests, s.ConfirmedRequests)
		}
		// A replica that fell behind may adopt a stable checkpoint and
		// skip the blocks below it without executing them; it then has
		// confirmed fewer requests than the clients accepted. That is the
		// known anchor-jump gap (ROADMAP): reported, and tolerated as long
		// as a reply quorum of replicas executed everything.
		if skipped := int64(s.ExecutedTo) - s.ExecutedBlocks; skipped > 0 {
			res.Info["skipped_blocks"] += float64(skipped)
			jumped++
		} else if s.ConfirmedRequests < minConfirmed {
			minConfirmed = s.ConfirmedRequests
		}
	}
	switch {
	case ref == nil:
		res.problem("no replica was live at the end of the run")
	case jumped > c.n()-(c.f()+1):
		res.problem("%d replicas skipped blocks by a checkpoint jump: fewer than f+1 executed everything", jumped)
	case g.totalAccepted > minConfirmed:
		res.problem("accepted %d requests but a replica that executed every block confirmed only %d", g.totalAccepted, minConfirmed)
	}
	return final
}

// verifyCerts verifies, after the window, every reply share kept for the
// seeded 1-in-verifyOneIn sample of accepted requests, on as many
// goroutines as there are processors.
func verifyCerts(res *runResult, c *cluster, g *generator) {
	workers := runtime.GOMAXPROCS(0)
	bad := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(g.certs); i += workers {
				if !c.verifyReply(g.certs[i]) {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, b := range bad {
		total += b
	}
	if total > 0 {
		res.problem("%d of %d sampled reply shares did not verify", total, len(g.certs))
	}
	if len(g.certs) == 0 {
		res.problem("no reply share was sampled for verification")
	}
	res.Info["verified_shares"] = float64(len(g.certs))
}

// longestGap is the longest interval between consecutive acceptances that
// overlaps [from, to]: the time without service around the leader stop.
func longestGap(accepts []acceptance, from, to time.Duration) time.Duration {
	var longest time.Duration
	for i := 1; i < len(accepts); i++ {
		a, b := accepts[i-1].at, accepts[i].at
		if b < from || a > to {
			continue
		}
		if b-a > longest {
			longest = b - a
		}
	}
	return longest
}

func writeTraces(path string, rec *recording, c *cluster) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	ev, err := os.Create(path + ".events.json")
	if err != nil {
		return err
	}
	if err := c.writeEvents(ev); err != nil {
		ev.Close()
		return err
	}
	return ev.Close()
}
