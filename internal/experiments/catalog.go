package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Sweep is the set of points one run of an experiment covers.
type Sweep struct {
	N []int // replica counts
	// Param is the figure's second axis — batch size, BFTblock links,
	// datablock requests, Mbps or client sessions — and nil when it has
	// none.
	Param []int
}

// or fills s's nil fields from def.
func (s Sweep) or(def Sweep) Sweep {
	if s.N == nil {
		s.N = def.N
	}
	if s.Param == nil {
		s.Param = def.Param
	}
	return s
}

// Rows is one experiment's typed result: encoding/json marshals it as the
// "rows" of the -json document, and Print writes it as the table a reader
// sees.
type Rows interface {
	Print(w io.Writer)
}

// Experiment is one table, figure or scenario of the evaluation, declared
// once.
type Experiment struct {
	ID   string
	Desc string
	// Paper is the paper's sweep: leopard-sim runs it unless -scales
	// overrides N, and the benchmarks run it under -leopard.full.
	Paper Sweep
	// Quick trims Paper for the default benchmark run; a nil field keeps
	// Paper's.
	Quick Sweep
	// Smoke is the point experiments.golden pins; a nil field keeps Paper's.
	Smoke Sweep
	// Run measures the sweep. It returns no rows on error, except that a
	// chaos run with invariant violations returns its rows and an error.
	Run func(Sweep) (Rows, error)
}

// Trimmed is the sweep the benchmarks run without -leopard.full.
func (e Experiment) Trimmed() Sweep { return e.Quick.or(e.Paper) }

var smoke4 = Sweep{N: []int{4}}

// Catalog lists every experiment once, in the order of the evaluation.
// leopard-sim, the root benchmarks, examples/scaling and experiments.golden
// all read it.
var Catalog = []Experiment{
	{
		ID: "fig2", Desc: "HotStuff throughput and leader bandwidth vs n",
		Paper: Sweep{N: []int{4, 16, 32, 64, 128, 256, 300}},
		Quick: Sweep{N: []int{4, 16, 64, 128}},
		Smoke: smoke4, Run: rowsOf(fig2),
	},
	{
		ID: "table1", Desc: "amortized costs (analytical); -scales adds the model's numeric scaling factors",
		Run: rowsOf(table1),
	},
	{
		ID: "fig6", Desc: "HotStuff throughput vs batch size",
		Paper: Sweep{N: []int{32, 64, 128, 256, 300}, Param: []int{100, 200, 400, 800, 1200}},
		Quick: Sweep{N: []int{32, 128}, Param: []int{100, 400, 800, 1200}},
		Smoke: smoke4, Run: rowsOf(fig6),
	},
	{
		ID: "fig7", Desc: "Leopard throughput vs BFTblock size",
		Paper: Sweep{N: []int{32, 64, 128, 256, 400, 600}, Param: []int{10, 50, 100, 200, 400}},
		Quick: Sweep{N: []int{32, 128}, Param: []int{10, 100, 400}},
		Smoke: smoke4, Run: rowsOf(fig7),
	},
	{
		ID: "fig8", Desc: "Leopard throughput vs datablock size",
		Paper: Sweep{N: []int{32, 64, 128}, Param: []int{500, 1000, 2000, 3000, 4000}},
		Quick: Sweep{N: []int{32, 128}, Param: []int{500, 2000, 4000}},
		Smoke: smoke4, Run: rowsOf(fig8),
	},
	{
		ID: "fig9", Desc: "throughput vs scale, Leopard vs HotStuff",
		Paper: Sweep{N: []int{32, 64, 128, 256, 300, 400, 600}},
		Quick: Sweep{N: []int{32, 128, 300}},
		Smoke: smoke4, Run: rowsOf(fig9),
	},
	{
		ID: "fig10", Desc: "scaling up: throughput/latency vs per-replica bandwidth",
		Paper: Sweep{N: []int{4, 16, 32, 64, 128}, Param: []int{20, 40, 80, 100, 200}},
		Quick: Sweep{N: []int{4, 64}, Param: []int{20, 100, 200}},
		Smoke: smoke4, Run: rowsOf(fig10),
	},
	{
		ID: "fig11", Desc: "leader bandwidth vs n, both systems",
		Paper: Sweep{N: []int{4, 16, 32, 64, 128, 256, 300, 400, 600}},
		Quick: Sweep{N: []int{4, 32, 128, 300}},
		Smoke: smoke4, Run: rowsOf(fig11),
	},
	{
		ID: "table3", Desc: "bandwidth utilization breakdown at the leader and a non-leader",
		Paper: Sweep{N: []int{32}}, Run: rowsOf(table3),
	},
	{
		ID: "table4", Desc: "latency breakdown across the pipeline stages",
		Paper: Sweep{N: []int{32}}, Run: rowsOf(table4),
	},
	{
		ID: "fig12", Desc: "retrieval cost of a missing datablock (+ Table V)",
		Paper: Sweep{N: []int{4, 7, 16, 32, 64, 128}},
		Quick: Sweep{N: []int{4, 16, 64}},
		Smoke: smoke4, Run: rowsOf(fig12),
	},
	{
		ID: "fig13", Desc: "view-change time and communication cost",
		Paper: Sweep{N: []int{4, 8, 13, 32, 64, 128}},
		Quick: Sweep{N: []int{4, 13, 64}},
		Smoke: smoke4, Run: rowsOf(fig13),
	},
	{
		ID: "a1", Desc: "ablation A1: per-responder retrieval cost, committee vs leader-only",
		Paper: Sweep{N: []int{4, 16, 64, 128}},
		Quick: Sweep{N: []int{4, 32}},
		Smoke: smoke4, Run: rowsOf(ablationRetrieval),
	},
	{
		ID: "a3", Desc: "ablation A3: fixed vs adaptive datablock size",
		Paper: Sweep{N: []int{16, 64, 128, 256}},
		Quick: Sweep{N: []int{16, 128}},
		Smoke: smoke4, Run: rowsOf(ablationAlpha),
	},
	{
		ID: "attack", Desc: "throughput under f selective-attacking replicas",
		Paper: Sweep{N: []int{16, 64, 128}},
		Quick: Sweep{N: []int{16}},
		Smoke: smoke4, Run: rowsOf(selectiveAttack),
	},
	{
		ID: "vclanes", Desc: "view-change convergence under saturated bulk lanes",
		Paper: Sweep{N: []int{4, 8, 16, 32}},
		Smoke: smoke4, Run: rowsOf(vcLanes),
	},
	{
		ID: "stream", Desc: "slow-receiver datablock fan-out over the credit-streamed bulk lane",
		Paper: Sweep{N: []int{4, 8}},
		Smoke: smoke4, Run: rowsOf(streamScenario),
	},
	{
		ID: "recover", Desc: "crash-restart a replica: WAL recovery + state transfer",
		Paper: Sweep{N: []int{4, 8}},
		Smoke: smoke4, Run: rowsOf(recoverScenario),
	},
	{
		ID: "chaos", Desc: "seeded fault schedules (partitions, loss, skew, crashes) under the invariant checker",
		Paper: Sweep{N: []int{4, 8, 16}},
		Smoke: smoke4,
		Run: func(s Sweep) (Rows, error) {
			rows, err := chaosScenario(s.N, defaultChaosParams())
			if err != nil {
				return nil, err
			}
			bad := 0
			for _, r := range rows {
				bad += len(r.Violations)
			}
			if bad > 0 {
				return rows, fmt.Errorf("%d invariant violations", bad)
			}
			return rows, nil
		},
	},
	{
		ID: "clients", Desc: "closed-loop signed clients: reply certificates under leader churn + a reply-suppressing replica",
		Paper: Sweep{N: []int{4}, Param: []int{1200}},
		Smoke: Sweep{N: []int{4}, Param: []int{200}}, Run: rowsOf(clientsScenario),
	},
}

// Lookup returns the catalog entry with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Catalog {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Document renders rows as the JSON document leopard-sim -json writes: the
// experiment id, the -scales it was given (omitted when none) and the rows.
func Document(id string, scales []int, rows Rows) ([]byte, error) {
	buf, err := json.MarshalIndent(struct {
		Experiment string `json:"experiment"`
		Scales     []int  `json:"scales,omitempty"`
		Rows       Rows   `json:"rows"`
	}{id, scales, rows}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("marshal %s rows: %w", id, err)
	}
	return append(buf, '\n'), nil
}

// rowsOf adapts a run over typed rows to Experiment.Run, so a failed run
// returns a nil Rows rather than a typed nil.
func rowsOf[R Rows](run func(Sweep) (R, error)) func(Sweep) (Rows, error) {
	return func(s Sweep) (Rows, error) {
		rows, err := run(s)
		if err != nil {
			return nil, err
		}
		return rows, nil
	}
}

// each runs once at every point of s — each replica count, crossed with each
// Param value when the sweep has a second axis (param is 0 when it has
// none) — and collects the rows in that order.
func each[T any](s Sweep, once func(n, param int) (T, error)) ([]T, error) {
	params := s.Param
	if params == nil {
		params = []int{0}
	}
	var out []T
	for _, n := range s.N {
		for _, p := range params {
			r, err := once(n, p)
			if err != nil {
				if s.Param != nil {
					return nil, fmt.Errorf("n=%d param=%d: %w", n, p, err)
				}
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
