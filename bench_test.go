// Benchmarks regenerating every table and figure in the Leopard paper's
// evaluation (§VI). Each benchmark prints the same rows/series the paper
// reports; README.md quotes the measured rows section by section and
// CHANGES.md records how they moved PR by PR.
//
// The default point sets are trimmed so the whole suite finishes in
// minutes on one core; run with -args -leopard.full for the paper's full
// sweeps (up to n = 600).
package main

import (
	"flag"
	"fmt"
	"testing"

	"leopard/internal/experiments"
	"leopard/internal/leopard/analysis"
)

var fullSweep = flag.Bool("leopard.full", false, "run the paper's full parameter sweeps (slow)")

// scalesFor trims a scale list unless -leopard.full is set.
func scalesFor(full, quick []int) []int {
	if *fullSweep {
		return full
	}
	return quick
}

// BenchmarkFig2_HotStuffLeaderBottleneck regenerates Fig. 2: HotStuff
// throughput falls while the leader's bandwidth utilization climbs as n
// grows — the paper's motivating observation.
func BenchmarkFig2_HotStuffLeaderBottleneck(b *testing.B) {
	scales := scalesFor([]int{4, 16, 32, 64, 128, 256, 300}, []int{4, 16, 64, 128})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(scales)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 2: HotStuff throughput and leader bandwidth vs n (payload 128B)")
		fmt.Println("   n   throughput(Kreq/s)   leader-bandwidth(Gbps)")
		for _, r := range rows {
			fmt.Printf("%4d   %18.1f   %22.2f\n", r.N, r.Throughput/1e3, r.LeaderMbps/1e3)
		}
	}
}

// BenchmarkTable1_AmortizedCosts regenerates Table I from the analytical
// cost model and prints the numeric scaling factors behind the O(·) forms.
func BenchmarkTable1_AmortizedCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := analysis.TableI()
		if i > 0 {
			continue
		}
		fmt.Println("\nTable I: amortized cost (honest leader, after GST)")
		fmt.Println("protocol   leader   non-leader   scaling-factor   votes(opt/faulty)")
		for _, r := range rows {
			fmt.Printf("%-9s  %-6s   %-10s   %-14s   %d / %d\n",
				r.Protocol, r.LeaderCost, r.ReplicaCost, r.ScalingFactor, r.VotingOptimistic, r.VotingFaulty)
		}
		fmt.Println("\nNumeric SF from the §V-B model (payload 128B, Table II batches):")
		fmt.Println("   n    SF(Leopard)   SF(leader-dissemination)")
		for _, n := range []int{16, 64, 128, 300, 600} {
			db, bft, _ := experiments.TableII(n)
			p := analysis.DefaultParams(n, db)
			p.Tau = float64(bft)
			fmt.Printf("%4d   %11.3f   %24.1f\n",
				n, analysis.LeopardScalingFactor(p), analysis.LeaderDisseminationScalingFactor(p, 1, false))
		}
	}
}

// BenchmarkFig6_HotStuffBatchSweep regenerates Fig. 6: HotStuff throughput
// saturates as the batch size grows.
func BenchmarkFig6_HotStuffBatchSweep(b *testing.B) {
	scales := scalesFor([]int{32, 64, 128, 256, 300}, []int{32, 128})
	batches := scalesFor([]int{100, 200, 400, 600, 800, 1200}, []int{100, 400, 800, 1200})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(scales, batches)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 6: HotStuff throughput (Kreq/s) vs batch size")
		fmt.Println("   n   batch   throughput")
		for _, r := range rows {
			fmt.Printf("%4d   %5.0f   %10.1f\n", r.N, r.Param, r.Throughput/1e3)
		}
	}
}

// BenchmarkFig7_LeopardBFTBlockSweep regenerates Fig. 7: Leopard throughput
// vs BFTblock size (datablock links per proposal).
func BenchmarkFig7_LeopardBFTBlockSweep(b *testing.B) {
	scales := scalesFor([]int{32, 64, 128, 256, 400, 600}, []int{32, 128})
	sizes := scalesFor([]int{10, 50, 100, 200, 400}, []int{10, 100, 400})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(scales, sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 7: Leopard throughput (Kreq/s) vs BFTblock size (links)")
		fmt.Println("   n   links   throughput")
		for _, r := range rows {
			fmt.Printf("%4d   %5.0f   %10.1f\n", r.N, r.Param, r.Throughput/1e3)
		}
	}
}

// BenchmarkFig8_LeopardDatablockSweep regenerates Fig. 8: Leopard
// throughput vs datablock size at fixed BFTblock sizes 10 and 100.
func BenchmarkFig8_LeopardDatablockSweep(b *testing.B) {
	scales := scalesFor([]int{32, 64, 128}, []int{32, 128})
	dbs := scalesFor([]int{500, 1000, 2000, 3000, 4000}, []int{500, 2000, 4000})
	for i := 0; i < b.N; i++ {
		for _, bft := range []int{10, 100} {
			rows, err := experiments.Fig8(scales, dbs, bft)
			if err != nil {
				b.Fatal(err)
			}
			if i > 0 {
				continue
			}
			fmt.Printf("\nFig 8: Leopard throughput (Kreq/s) vs datablock size (BFTblock size %d)\n", bft)
			fmt.Println("   n   datablock   throughput")
			for _, r := range rows {
				fmt.Printf("%4d   %9.0f   %10.1f\n", r.N, r.Param, r.Throughput/1e3)
			}
		}
	}
}

// BenchmarkFig9_ThroughputVsScale regenerates Fig. 9, the headline result:
// Leopard stays near 1e5 req/s up to n=600 while HotStuff collapses, with
// a >=5x gap at n=300.
func BenchmarkFig9_ThroughputVsScale(b *testing.B) {
	scales := scalesFor([]int{32, 64, 128, 256, 300, 400, 600}, []int{32, 128, 300})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(scales, 300)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 9: throughput (Kreq/s) vs number of replicas")
		fmt.Println("   n   Leopard   HotStuff   ratio")
		for _, r := range rows {
			if r.HotStuff != nil {
				fmt.Printf("%4d   %7.1f   %8.1f   %5.1fx\n",
					r.N, r.Leopard.Throughput/1e3, r.HotStuff.Throughput/1e3,
					r.Leopard.Throughput/r.HotStuff.Throughput)
			} else {
				fmt.Printf("%4d   %7.1f   %8s   %5s\n", r.N, r.Leopard.Throughput/1e3, "-", "-")
			}
		}
	}
}

// BenchmarkFig10_ScalingUp regenerates Fig. 10: throughput and latency
// under 20-200 Mbps per-replica bandwidth. Leopard's throughput grows with
// slope ~1/2 of the added bandwidth at all scales; HotStuff's slope decays
// toward 0 as n grows.
func BenchmarkFig10_ScalingUp(b *testing.B) {
	scales := scalesFor([]int{4, 16, 32, 64, 128}, []int{4, 64})
	bws := []float64{20, 100, 200}
	if *fullSweep {
		bws = []float64{20, 40, 80, 100, 200}
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(scales, bws)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 10: throughput (Mbps of payload) and latency vs per-replica bandwidth")
		fmt.Println("system     n   bandwidth(Mbps)   throughput(Mbps)   mean-latency")
		for _, r := range rows {
			fmt.Printf("%-8s %4d   %15.0f   %16.2f   %12v\n", r.System, r.N, r.BandwidthMbps, r.TputMbps, r.MeanLat)
		}
	}
}

// BenchmarkFig11_LeaderBandwidth regenerates Fig. 11: the leader's
// bandwidth utilization vs n for both systems.
func BenchmarkFig11_LeaderBandwidth(b *testing.B) {
	scales := scalesFor([]int{4, 16, 32, 64, 128, 256, 300, 400, 600}, []int{4, 32, 128, 300})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(scales, 300)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 11: leader bandwidth utilization (Mbps) vs n")
		fmt.Println("   n   Leopard   HotStuff")
		for _, r := range rows {
			if r.HotStuff != nil {
				fmt.Printf("%4d   %7.0f   %8.0f\n", r.N, r.Leopard.LeaderMbps, r.HotStuff.LeaderMbps)
			} else {
				fmt.Printf("%4d   %7.0f   %8s\n", r.N, r.Leopard.LeaderMbps, "-")
			}
		}
	}
}

// BenchmarkTable3_BandwidthBreakdown regenerates Table III: per-component
// bandwidth utilization at the leader and a non-leader replica (n=32).
func BenchmarkTable3_BandwidthBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		leader, replica, err := experiments.Table3(32)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nTable III: bandwidth utilization breakdown (n=32)")
		fmt.Println("-- leader --")
		for _, r := range leader {
			fmt.Printf("  %-8s %-11s %6.2f%%\n", r.Direction, r.Class, r.Percent)
		}
		fmt.Println("-- non-leader replica --")
		for _, r := range replica {
			fmt.Printf("  %-8s %-11s %6.2f%%\n", r.Direction, r.Class, r.Percent)
		}
	}
}

// BenchmarkTable4_LatencyBreakdown regenerates Table IV: time spent per
// Leopard pipeline stage (n=32).
func BenchmarkTable4_LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(32)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nTable IV: latency breakdown (n=32)")
		for _, r := range rows {
			fmt.Printf("  %-26s %6.2f%%\n", r.Stage, r.Percent)
		}
	}
}

// BenchmarkFig12_RetrievalCost regenerates Fig. 12 and Table V: the
// communication and time costs of recovering one 2000-request datablock.
func BenchmarkFig12_RetrievalCost(b *testing.B) {
	scales := scalesFor([]int{4, 7, 16, 32, 64, 128}, []int{4, 16, 64})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12(scales, false)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 12 + Table V: retrieving a 2000-request datablock")
		fmt.Println("   n   recover(KB)   respond(KB)   time(ms)")
		for _, r := range rows {
			fmt.Printf("%4d   %11.1f   %11.1f   %8.1f\n",
				r.N, float64(r.RecoverBytes)/1e3, float64(r.RespondBytes)/1e3,
				float64(r.RetrievalTime.Microseconds())/1e3)
		}
	}
}

// BenchmarkFig13_ViewChange regenerates Fig. 13: view-change time and
// communication cost after crashing the leader.
func BenchmarkFig13_ViewChange(b *testing.B) {
	scales := scalesFor([]int{4, 8, 13, 32, 64, 128}, []int{4, 13, 64})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(scales)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nFig 13: view-change cost after a leader crash")
		fmt.Println("   n   time(ms)   total(B)   leader-sent(B)   leader-recv(B)   replica-sent(B)")
		for _, r := range rows {
			fmt.Printf("%4d   %8.1f   %8d   %14d   %14d   %15d\n",
				r.N, float64(r.Time.Microseconds())/1e3, r.TotalBytes,
				r.LeaderSent, r.LeaderReceived, r.PerReplicaSent)
		}
	}
}

// BenchmarkAblation_RetrievalLeaderVsCommittee compares the paper's
// committee+erasure retrieval against the naive leader-serves-full-blocks
// alternative (§IV-A2's "intuitive solution").
func BenchmarkAblation_RetrievalLeaderVsCommittee(b *testing.B) {
	scales := scalesFor([]int{4, 16, 64, 128}, []int{4, 32})
	for i := 0; i < b.N; i++ {
		committee, err := experiments.Fig12(scales, false)
		if err != nil {
			b.Fatal(err)
		}
		naive, err := experiments.Fig12(scales, true)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nAblation A1: per-responder retrieval cost, committee vs leader-only")
		fmt.Println("   n   committee-respond(KB)   leader-respond(KB)")
		for j := range committee {
			fmt.Printf("%4d   %21.1f   %18.1f\n",
				committee[j].N, float64(committee[j].RespondBytes)/1e3, float64(naive[j].RespondBytes)/1e3)
		}
	}
}

// BenchmarkAblation_AdaptiveAlpha demonstrates the α = λ(n-1) recipe: with
// a fixed small datablock the agreement overhead grows with n, while the
// adaptive size keeps throughput flat (constant scaling factor).
func BenchmarkAblation_AdaptiveAlpha(b *testing.B) {
	scales := scalesFor([]int{16, 64, 128, 256}, []int{16, 128})
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationAdaptiveAlpha(scales)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			continue
		}
		fmt.Println("\nAblation A3: fixed vs adaptive datablock size (Kreq/s)")
		fmt.Println("   n   fixed-200   adaptive-16(n-1)")
		for _, r := range rows {
			fmt.Printf("%4d   %9.1f   %16.1f\n", r.N, r.FixedTput/1e3, r.AdaptiveTput/1e3)
		}
	}
}

// BenchmarkByzantine_SelectiveAttack measures throughput under f selective-
// attacking replicas (the §VI-D fault setting): the ready round plus
// retrieval keep the system live.
func BenchmarkByzantine_SelectiveAttack(b *testing.B) {
	scales := scalesFor([]int{16, 64, 128}, []int{16})
	for i := 0; i < b.N; i++ {
		fmt.Println("\nByzantine: throughput with f selective-attacking replicas")
		fmt.Println("   n   throughput(Kreq/s)   retrievals")
		for _, n := range scales {
			r, err := experiments.SelectiveAttack(n)
			if err != nil {
				b.Fatal(err)
			}
			if i > 0 {
				continue
			}
			fmt.Printf("%4d   %18.1f   %10d\n", r.N, r.Throughput/1e3, r.Retrievals)
		}
	}
}
