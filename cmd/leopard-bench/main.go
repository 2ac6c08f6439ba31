// Command leopard-bench is the repository's benchmark: it stands up n
// in-process replicas the way cmd/leopard-node wires one (leopard.NewNode +
// tcp.New over loopback TCP, real ed25519, optionally the on-disk WAL),
// drives them from one load-generator goroutine multiplexing signed
// client sessions, prints every metric by name with its unit and checks
// that the outcome is correct. See README.md.
//
// One run of one workload, as the benchmark contract calls it:
//
//	leopard-bench --workload n4-small --seed 1 --seconds 12 --trace 0
//
// Without --workload, every workload of the catalog in turn. With -json,
// each run also appends its result to a run set (one JSON object per
// line); two run sets are compared against the end-to-end bounds with
//
//	leopard-bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "the workload to run (empty: every workload in turn)")
		seed     = flag.Int64("seed", 1, "workload seed: request payloads, the open-loop schedule, keys and the verification sample derive from it")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", "", "with -workload and -trace 1: write the recorded spans here as Chrome trace JSON (lifecycle events go to <path>.events.json)")
		tmp      = flag.String("tmp", ".bench_build/run", "directory under which the WAL workloads keep their data during a run")
		jsonOut  = flag.String("json", "", "append each run's result to this run set, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two run sets: leopard-bench -compare a.json b.json")
		layers   = flag.Bool("layers", false, "run only the isolated drivers (mempool, erasure, merkle) on the n4-small and n4-large shapes")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two run-set files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(2)
		}
	case *layers:
		err = runLayers(*seed)
	case *workload != "":
		spec, ok := findWorkload(*workload)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workload)
			break
		}
		err = runSingle(spec, *seed, *seconds, *trace, *traceOut, *tmp, *jsonOut)
	case *traceOut != "":
		err = errors.New("-trace-out needs -workload")
	default:
		for _, spec := range workloads {
			if err = runSingle(spec, *seed, *seconds, *trace, "", *tmp, *jsonOut); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "leopard-bench:", err)
		os.Exit(1)
	}
}

func window(seconds float64) (time.Duration, error) {
	if seconds < 1 || seconds > 60 {
		return 0, fmt.Errorf("-seconds %v outside 1..60", seconds)
	}
	return time.Duration(seconds * float64(time.Second)), nil
}

// measure runs one workload untraced, or traced. obs.trace_overhead_frac
// needs an untraced run of the same workload and seed, so a traced run is
// preceded by a short untraced reference run (a quarter of the window, so
// that a traced run costs the driver little more time than an untraced
// one). WAL directories live under tmp only for the length of the run that
// made them (runOnce removes its own); tmp itself may be any directory of
// the user's and is left alone.
func measure(spec workloadSpec, seed int64, win time.Duration, traced bool, traceOut, tmp string) (*runResult, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if !traced {
		return runOnce(runOptions{spec: spec, seed: seed, window: win, tmpRoot: tmp, setups: setupRepeats})
	}
	ref, err := runOnce(runOptions{spec: spec, seed: seed, window: win / 4, warmup: refWarmup, tmpRoot: tmp, setups: 1, noCrash: true})
	if err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	res, err := runOnce(runOptions{spec: spec, seed: seed, window: win, traced: true, traceOut: traceOut, tmpRoot: tmp, setups: 1})
	if err != nil {
		return nil, err
	}
	setOverhead(res, ref.Info["goodput_rps"])
	if !ref.Correct {
		res.problem("the untraced run tracing is compared with was not correct: %s", strings.Join(ref.Problems, "; "))
		res.Correct = false
	}
	return res, nil
}

// setOverhead reports tracing's cost as the goodput an untraced run of the
// same workload and seed reached beyond the traced one's, both at the
// reference machine speed.
func setOverhead(traced *runResult, untracedGoodput float64) {
	traced.Info["untraced_goodput_rps"] = untracedGoodput
	traced.Metrics["obs.trace_overhead_frac"] = ratio(untracedGoodput-traced.Info["goodput_rps"], untracedGoodput)
}

func header(spec workloadSpec, seed int64, seconds float64, trace int) {
	loop := fmt.Sprintf("closed loop, %d sessions", spec.Sessions)
	if spec.OpenRate > 0 {
		loop = fmt.Sprintf("open loop %.0f req/s over %d sessions", spec.OpenRate, spec.Sessions)
	}
	fmt.Printf("leopard-bench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		spec.Name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("  n=%d payload=%dB datablock=%d bftblock=%d %s wal=%v rotate=%v warm-up=%v\n",
		spec.N, spec.Payload, spec.DatablockSize, spec.BFTBlockSize, loop, spec.WAL, spec.Rotate, warmupTime)
	fmt.Println("  loopback adds no delay: latency is processor and protocol-timer time only")
	if spec.OpenRate == 0 {
		fmt.Println("  closed loop: goodput, latencies and cpu_us_per_req are scaled to the reference machine speed (machine_speed; calib.go)")
	}
}

func defsFor(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// printResult writes every declared metric by name with its unit.
func printResult(res *runResult) error {
	for _, d := range defsFor(res.Trace) {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.Name)
		}
		fmt.Printf("  %-44s %16.4f %s\n", d.Name, v, d.Unit)
	}
	// An untraced run also records the gates of -compare that are not
	// declared end-to-end metrics.
	gated := map[string]bool{}
	for _, gt := range gates {
		_, declared := res.Metrics[gt.Name]
		if v, ok := res.Info[gt.Name]; ok && !declared && res.Trace == 0 {
			gated[gt.Name] = true
			fmt.Printf("  %-44s %16.4f %s\n", gt.Name, v, gt.Unit)
		}
	}
	var info []string
	for k := range res.Info {
		if !gated[k] {
			info = append(info, k)
		}
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Printf("  (%s %.4f)\n", k, res.Info[k])
	}
	fmt.Print("  (accepted per second, by slice:")
	for _, r := range res.slices {
		fmt.Printf(" %.0f", r)
	}
	fmt.Println(")")
	if res.Trace == 1 {
		printBudget(res)
	}
	fmt.Printf("  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	return nil
}

// resultLine renders the last line of a single run's output.
func resultLine(res *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defsFor(res.Trace) {
		out.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	buf, err := json.Marshal(out)
	return string(buf), err
}

func runSingle(spec workloadSpec, seed int64, seconds float64, trace int, traceOut, tmp, jsonOut string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	win, err := window(seconds)
	if err != nil {
		return err
	}
	header(spec, seed, seconds, trace)
	res, err := measure(spec, seed, win, trace == 1, traceOut, tmp)
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", spec.Name, seed, err)
	}
	if err := printResult(res); err != nil {
		return err
	}
	if jsonOut != "" {
		if err := appendRun(jsonOut, res); err != nil {
			return err
		}
	}
	line, err := resultLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// appendRun adds one run to a run set: a file of one JSON object per line,
// which -compare reads.
func appendRun(path string, res *runResult) error {
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLayers prints the isolated drivers on the two datablock shapes.
func runLayers(seed int64) error {
	for _, name := range []string{"n4-small", "n4-large"} {
		spec, _ := findWorkload(name)
		g := &generator{spec: spec, seed: seed}
		g.pool = payloadPool(seed, spec.Payload)
		shape := make([]request, spec.DatablockSize)
		for i := range shape {
			shape[i] = request{client: uint64(i), seq: 1, payload: g.payload(uint64(i), 1)}
		}
		iso, err := isolatedLayers(spec.N, shape)
		if err != nil {
			return err
		}
		fmt.Printf("isolated layers on the %s shape (n=%d, %d requests of %d B per datablock)\n",
			name, spec.N, spec.DatablockSize, spec.Payload)
		for _, d := range perLayer {
			if v, ok := iso[d.Name]; ok {
				fmt.Printf("  %-44s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	return nil
}
