// scaling: the paper's headline experiment in miniature — throughput of
// Leopard vs HotStuff as the replica count grows, on the calibrated
// simulator (Fig. 9). Expect Leopard to stay near 1e5 requests/sec while
// HotStuff's leader bottleneck collapses its throughput.
//
//	go run ./examples/scaling            # the catalog's trimmed sweep
//	go run ./examples/scaling -full      # the paper's scales up to 600
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"leopard/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "sweep the paper's full scale list (slow)")
	flag.Parse()
	fig9, _ := experiments.Lookup("fig9")
	s := fig9.Trimmed()
	if *full {
		s = fig9.Paper
	}
	rows, err := fig9.Run(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("throughput vs scale (payload 128 B, Table II batch sizes)")
	rows.Print(os.Stdout)
	fmt.Println("\nLeopard's curve stays flat because every replica shares the")
	fmt.Println("dissemination load (constant scaling factor); HotStuff's leader")
	fmt.Println("must push every request to all n-1 replicas itself.")
}
