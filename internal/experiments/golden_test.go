package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/rows.golden from the current scenarios")

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
