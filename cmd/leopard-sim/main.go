// Command leopard-sim reproduces the paper's tables and figures from the
// command line. Each experiment id corresponds to one table/figure of the
// evaluation section (-list prints the index; README.md §"Quick start"):
//
//	leopard-sim -experiment fig9
//	leopard-sim -experiment fig12 -scales 4,16,64
//	leopard-sim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"leopard/internal/experiments"
	"leopard/internal/leopard/analysis"
	"leopard/internal/metrics"
	"leopard/internal/obs"
)

var knownExperiments = []struct{ id, desc string }{
	{"fig2", "HotStuff throughput and leader bandwidth vs n"},
	{"table1", "amortized costs and scaling factors (analytical)"},
	{"fig6", "HotStuff throughput vs batch size"},
	{"fig7", "Leopard throughput vs BFTblock size"},
	{"fig8", "Leopard throughput vs datablock size"},
	{"fig9", "throughput vs scale, Leopard vs HotStuff"},
	{"fig10", "scaling up: throughput/latency vs per-replica bandwidth"},
	{"fig11", "leader bandwidth vs n, both systems"},
	{"table3", "bandwidth utilization breakdown (n=32)"},
	{"table4", "latency breakdown (n=32)"},
	{"fig12", "retrieval cost of a missing datablock (+ Table V)"},
	{"fig13", "view-change time and communication cost"},
	{"attack", "throughput under f selective-attacking replicas"},
	{"vclanes", "view-change convergence under saturated bulk lanes"},
	{"stream", "slow-receiver datablock fan-out over the credit-streamed bulk lane"},
	{"recover", "crash-restart a replica: WAL recovery + state transfer"},
	{"chaos", "seeded fault schedules (partitions, loss, skew, crashes) under the invariant checker"},
	{"clients", "closed-loop signed clients: reply certificates under leader churn + a reply-suppressing replica"},
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (see -list)")
		scalesArg  = flag.String("scales", "", "comma-separated replica counts (default: per-experiment)")
		list       = flag.Bool("list", false, "list available experiments")

		numClients = flag.Int("clients", 1200,
			"closed-loop client sessions for -experiment clients")
		tracePath = flag.String("trace", "",
			"write a Chrome trace_event JSON of the run to this path (chaos)")
		jsonPath = flag.String("json", "",
			"write the experiment's result rows as JSON to this path")
	)
	flag.Parse()
	if *list || *experiment == "" {
		fmt.Println("experiments:")
		for _, e := range knownExperiments {
			fmt.Printf("  %-8s %s\n", e.id, e.desc)
		}
		if *experiment == "" && !*list {
			os.Exit(2)
		}
		return
	}
	scales, err := parseScales(*scalesArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *tracePath != "" {
		// chaos is the one experiment wired into the experiments.Tracing
		// collector; -trace on anything else would silently export nothing.
		if *experiment != "chaos" {
			fmt.Fprintf(os.Stderr, "-trace is not supported by experiment %q (supported: chaos)\n", *experiment)
			os.Exit(2)
		}
		experiments.Tracing = obs.NewCollector(obs.DefaultRingCap)
	}
	rows, runErr := run(*experiment, scales, *numClients)
	// The trace and JSON artifacts are written even when the run reports
	// violations: a failing chaos run is exactly when the trace matters.
	if *jsonPath != "" && rows != nil {
		if err := writeJSON(*jsonPath, *experiment, scales, rows); err != nil {
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
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

// writeJSON dumps the experiment's typed result rows for machines.
func writeJSON(path, experiment string, scales []int, rows any) error {
	doc := struct {
		Experiment string `json:"experiment"`
		Scales     []int  `json:"scales,omitempty"`
		Rows       any    `json:"rows"`
	}{Experiment: experiment, Scales: scales, Rows: rows}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal results: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
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

// run executes one experiment: it prints the human-readable table and
// returns the typed result rows for the -json writer (nil when the
// experiment has no row form).
func run(id string, scales []int, numClients int) (any, error) {
	var out any
	switch id {
	case "fig2":
		rows, err := experiments.Fig2(scales)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("   n   throughput(Kreq/s)   leader(Gbps)")
		for _, r := range rows {
			fmt.Printf("%4d   %18.1f   %12.2f\n", r.N, r.Throughput/1e3, r.LeaderMbps/1e3)
		}
	case "table1":
		rows := analysis.TableI()
		out = rows
		for _, r := range rows {
			fmt.Printf("%-9s leader=%-5s replica=%-5s SF=%-5s votes=%d/%d\n",
				r.Protocol, r.LeaderCost, r.ReplicaCost, r.ScalingFactor, r.VotingOptimistic, r.VotingFaulty)
		}
	case "fig6":
		rows, err := experiments.Fig6(scales, nil)
		if err != nil {
			return nil, err
		}
		out = rows
		printPoints("batch", rows)
	case "fig7":
		rows, err := experiments.Fig7(scales, nil)
		if err != nil {
			return nil, err
		}
		out = rows
		printPoints("links", rows)
	case "fig8":
		type fig8Group struct {
			BFTBlockSize int
			Rows         []experiments.Point
		}
		var groups []fig8Group
		for _, bft := range []int{10, 100} {
			rows, err := experiments.Fig8(scales, nil, bft)
			if err != nil {
				return nil, err
			}
			groups = append(groups, fig8Group{BFTBlockSize: bft, Rows: rows})
			fmt.Printf("-- BFTblock size %d --\n", bft)
			printPoints("datablock", rows)
		}
		out = groups
	case "fig9", "fig11":
		rows, err := experiments.Fig9(scales, 300)
		if err != nil {
			return nil, err
		}
		out = rows
		if id == "fig9" {
			fmt.Println("   n   Leopard(Kreq/s)   HotStuff(Kreq/s)")
		} else {
			fmt.Println("   n   Leopard-leader(Mbps)   HotStuff-leader(Mbps)")
		}
		for _, r := range rows {
			if id == "fig9" {
				if r.HotStuff != nil {
					fmt.Printf("%4d   %15.1f   %16.1f\n", r.N, r.Leopard.Throughput/1e3, r.HotStuff.Throughput/1e3)
				} else {
					fmt.Printf("%4d   %15.1f   %16s\n", r.N, r.Leopard.Throughput/1e3, "-")
				}
				continue
			}
			if r.HotStuff != nil {
				fmt.Printf("%4d   %20.0f   %21.0f\n", r.N, r.Leopard.LeaderMbps, r.HotStuff.LeaderMbps)
			} else {
				fmt.Printf("%4d   %20.0f   %21s\n", r.N, r.Leopard.LeaderMbps, "-")
			}
		}
	case "fig10":
		rows, err := experiments.Fig10(scales, nil)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("system     n   bw(Mbps)   tput(Mbps)   latency")
		for _, r := range rows {
			fmt.Printf("%-8s %4d   %8.0f   %10.2f   %v\n", r.System, r.N, r.BandwidthMbps, r.TputMbps, r.MeanLat)
		}
	case "table3":
		leader, replica, err := experiments.Table3(32)
		if err != nil {
			return nil, err
		}
		out = struct {
			Leader  []metrics.BreakdownRow
			Replica []metrics.BreakdownRow
		}{Leader: leader, Replica: replica}
		fmt.Println("-- leader --")
		fmt.Print(metrics.FormatBreakdown(leader))
		fmt.Println("-- non-leader --")
		fmt.Print(metrics.FormatBreakdown(replica))
	case "table4":
		rows, err := experiments.Table4(32)
		if err != nil {
			return nil, err
		}
		out = rows
		for _, r := range rows {
			fmt.Printf("%-26s %6.2f%%\n", r.Stage, r.Percent)
		}
	case "fig12":
		rows, err := experiments.Fig12(scales, false)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("   n   recover(KB)   respond(KB)   time(ms)")
		for _, r := range rows {
			fmt.Printf("%4d   %11.1f   %11.1f   %8.1f\n",
				r.N, float64(r.RecoverBytes)/1e3, float64(r.RespondBytes)/1e3,
				float64(r.RetrievalTime.Microseconds())/1e3)
		}
	case "fig13":
		rows, err := experiments.Fig13(scales)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("   n   time(ms)   total(B)   leader-sent(B)")
		for _, r := range rows {
			fmt.Printf("%4d   %8.1f   %8d   %14d\n",
				r.N, float64(r.Time.Microseconds())/1e3, r.TotalBytes, r.LeaderSent)
		}
	case "vclanes":
		rows, err := experiments.ViewChangeUnderBulk(scales)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("   n   laned(ms)")
		for _, r := range rows {
			fmt.Printf("%4d   %9.1f\n", r.N, float64(r.Laned.Microseconds())/1e3)
		}
	case "stream":
		rows, err := experiments.StreamScenario(scales)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("   n   converge(ms)   peak-queued(KB)   drops   retrievals")
		for _, r := range rows {
			fmt.Printf("%4d   %12.1f   %15.1f   %5d   %10d\n",
				r.N, float64(r.Converged.Microseconds())/1e3,
				float64(r.PeakQueuedBytes)/1e3, r.BulkDrops, r.Retrievals)
		}
	case "recover":
		rows, err := experiments.RecoverScenario(scales)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("   n   caught-up   catchup(ms)   height@restart   replayed   transferred   retrievals   re-votes")
		for _, r := range rows {
			caught := "yes"
			catchup := fmt.Sprintf("%11.1f", float64(r.CatchupTime.Microseconds())/1e3)
			if !r.CaughtUp {
				caught, catchup = "NO", fmt.Sprintf("%11s", "never")
			}
			fmt.Printf("%4d   %9s   %s   %14d   %8d   %11d   %10d   %8d\n",
				r.N, caught, catchup, r.HeightAtRestart,
				r.BlocksReplayed, r.StateBlocks, r.Retrievals, r.ReVotes)
		}
	case "chaos":
		rows, err := experiments.ChaosScenario(scales)
		if err != nil {
			return nil, err
		}
		out = rows
		fmt.Println("   n   plan                     height   view-changes   votes-logged   votes-reloaded   violations")
		bad := 0
		for _, r := range rows {
			viol := "none"
			if len(r.Violations) > 0 {
				viol = fmt.Sprintf("%d (see below)", len(r.Violations))
				bad += len(r.Violations)
			}
			fmt.Printf("%4d   %-22s   %6d   %12d   %12d   %14d   %s\n",
				r.N, r.Plan, r.Height, r.ViewChanges, r.VotesLogged, r.VotesReloaded, viol)
		}
		for _, r := range rows {
			for _, v := range r.Violations {
				fmt.Printf("VIOLATION n=%d plan=%s: %s\n", r.N, r.Plan, v)
			}
			if r.PostMortem != "" {
				fmt.Printf("-- post-mortem n=%d plan=%s (event history at first violation) --\n%s", r.N, r.Plan, r.PostMortem)
			}
		}
		if bad > 0 {
			return out, fmt.Errorf("chaos: %d invariant violations", bad)
		}
	case "clients":
		rows, err := experiments.ClientsScenario(scales, numClients)
		if err != nil {
			return nil, err
		}
		out = rows
		for _, r := range rows {
			fmt.Print(experiments.FormatClients(r))
		}
	case "attack":
		if len(scales) == 0 {
			scales = []int{16, 64}
		}
		var rows []experiments.SelectiveAttackResult
		fmt.Println("   n   throughput(Kreq/s)   retrievals")
		for _, n := range scales {
			r, err := experiments.SelectiveAttack(n)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
			fmt.Printf("%4d   %18.1f   %10d\n", r.N, r.Throughput/1e3, r.Retrievals)
		}
		out = rows
	default:
		return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	return out, nil
}

func printPoints(param string, rows []experiments.Point) {
	fmt.Printf("   n   %9s   throughput(Kreq/s)\n", param)
	for _, r := range rows {
		fmt.Printf("%4d   %9.0f   %18.1f\n", r.N, r.Param, r.Throughput/1e3)
	}
}
