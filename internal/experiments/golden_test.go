package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current scenarios")

// TestExperimentsGolden pins every experiment's result rows at its smoke
// point: one section per experiment, each the document `leopard-sim
// -experiment <id> -scales <smoke> -json` writes. The runs are
// deterministic, so a change that claims to leave the evaluation alone
// proves it by this file not moving; one that means to move an experiment
// re-records with -update and says why.
func TestExperimentsGolden(t *testing.T) {
	const path = "testdata/experiments.golden"
	got := make([]string, len(Catalog))
	// Every experiment builds its own clusters and shares no state with the
	// others, so they run side by side.
	t.Run("smoke", func(t *testing.T) {
		for i, e := range Catalog {
			t.Run(e.ID, func(t *testing.T) {
				t.Parallel()
				s := e.Smoke.or(e.Paper)
				rows, err := e.Run(s)
				if err != nil {
					t.Fatal(err)
				}
				doc, err := Document(e.ID, s.N, rows)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = string(doc)
			})
		}
	})
	if t.Failed() {
		return
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Each section ends at its document's closing brace, the only one in
	// column 0, so a failure names the experiments that moved.
	sections := strings.SplitAfter(string(want), "\n}\n")
	if len(sections) != len(got)+1 || sections[len(got)] != "" {
		t.Fatalf("%s holds %d sections, the catalog %d experiments", path, len(sections)-1, len(got))
	}
	for i, e := range Catalog {
		if got[i] != sections[i] {
			t.Errorf("%s moved:\n got %s\nwant %s", e.ID, got[i], sections[i])
		}
	}
}

// TestChaosDigestGolden pins ChaosRunDigest — every plan's row plus the
// per-replica sent/received byte signature, which the experiments golden
// does not carry — at n=4, 8 and 16. The larger scales are where the plans
// change views most (f=2 and f=5 quorums), so a change to what a view or a
// slot owns proves it moved no message by this file not moving.
func TestChaosDigestGolden(t *testing.T) {
	const path = "testdata/chaos_digest.golden"
	var b strings.Builder
	for _, n := range []int{4, 8, 16} {
		digest, err := ChaosRunDigest(n, defaultChaosParams())
		if err != nil {
			t.Fatal(err)
		}
		// One plan per line, so a diff names the plan that moved.
		fmt.Fprintf(&b, "n=%d\n", n)
		for _, plan := range strings.Split(digest, "; ") {
			fmt.Fprintf(&b, "  %s\n", strings.TrimSpace(plan))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("seeded chaos digests moved:\n got %s\nwant %s", got, want)
	}
}
