// Command leopard-sim reproduces the paper's tables and figures from the
// command line. Each experiment id is one entry of experiments.Catalog, one
// table/figure/scenario of the evaluation section (-list prints the index;
// README.md §"Quick start"):
//
//	leopard-sim -experiment fig9
//	leopard-sim -experiment fig12 -scales 4,16,64
//	leopard-sim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"leopard/internal/experiments"
	"leopard/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (see -list)")
		scalesArg  = flag.String("scales", "", "comma-separated replica counts (default: the experiment's paper sweep)")
		list       = flag.Bool("list", false, "list available experiments")

		numClients = flag.Int("clients", 0,
			"closed-loop client sessions for -experiment clients (default: the experiment's paper sweep)")
		tracePath = flag.String("trace", "",
			"write a Chrome trace_event JSON of the run to this path (chaos)")
		jsonPath = flag.String("json", "",
			"write the experiment's result rows as JSON to this path")
	)
	flag.Parse()
	if *list || *experiment == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.Catalog {
			fmt.Printf("  %-8s %s\n", e.ID, e.Desc)
		}
		if *experiment == "" && !*list {
			os.Exit(2)
		}
		return
	}
	e, ok := experiments.Lookup(*experiment)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *experiment)
		os.Exit(2)
	}
	scales, err := parseScales(*scalesArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sweep := e.Paper
	if scales != nil {
		sweep.N = scales
	}
	if *numClients > 0 {
		if e.ID != "clients" {
			fmt.Fprintf(os.Stderr, "-clients is not supported by experiment %q (supported: clients)\n", e.ID)
			os.Exit(2)
		}
		sweep.Param = []int{*numClients}
	}
	if *tracePath != "" {
		// chaos is the one experiment wired into the experiments.Tracing
		// collector; -trace on anything else would silently export nothing.
		if e.ID != "chaos" {
			fmt.Fprintf(os.Stderr, "-trace is not supported by experiment %q (supported: chaos)\n", e.ID)
			os.Exit(2)
		}
		experiments.Tracing = obs.NewCollector(obs.DefaultRingCap)
	}
	rows, runErr := e.Run(sweep)
	// The table, trace and JSON artifacts are written even when the run
	// reports violations: a failing chaos run is exactly when they matter.
	if rows != nil {
		rows.Print(os.Stdout)
	}
	if *jsonPath != "" && rows != nil {
		doc, err := experiments.Document(e.ID, scales, rows)
		if err == nil {
			err = os.WriteFile(*jsonPath, doc, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, experiments.Tracing); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, runErr)
		os.Exit(1)
	}
}

// writeTrace exports the collected event traces as Chrome trace_event JSON
// (chrome://tracing, Perfetto) and prints the stage-latency reduction.
func writeTrace(path string, col *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	if err := col.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if rows := col.StageBreakdown(); len(rows) > 0 {
		fmt.Println("-- traced stage breakdown --")
		for _, r := range rows {
			fmt.Printf("%-34s %12v %6.2f%%\n", r.Stage, r.Total, r.Percent)
		}
	}
	fmt.Printf("trace written to %s\n", path)
	return nil
}

func parseScales(arg string) ([]int, error) {
	if arg == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad scale %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
