package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current scenarios")

// TestRowsGolden pins the seeded n=4 result rows of the chaos, recover and
// stream scenarios byte for byte. The runs are deterministic, so a change
// that claims to leave the fixed-leader protocol's behaviour alone proves it
// by this file not moving; one that means to move it re-records with -update
// and says why.
func TestRowsGolden(t *testing.T) {
	const path = "testdata/rows.golden"
	scales := []int{4}
	chaos, err := ChaosScenario(scales)
	if err != nil {
		t.Fatal(err)
	}
	recov, err := RecoverScenario(scales)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := StreamScenario(scales)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.MarshalIndent(struct {
		Chaos   []ChaosResult
		Recover []RecoverResult
		Stream  []StreamResult
	}{chaos, recov, stream}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf) + "\n"
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
		t.Errorf("seeded rows moved:\n got %s\nwant %s", got, want)
	}
}

// TestChaosDigestGolden pins ChaosRunDigest — every plan's row plus the
// per-replica sent/received byte signature, which rows.golden does not carry
// — at n=4, 8 and 16. The larger scales are where the plans change views
// most (f=2 and f=5 quorums), so a change to what a view or a slot owns
// proves it moved no message by this file not moving.
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
