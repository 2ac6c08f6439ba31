package lint_test

import (
	"testing"

	"leopard/internal/lint"
)

// TestRepositoryIsLintClean is the meta-test behind the CI gate: the
// invariant suite must exit clean on the repository itself. Every real
// finding has either been fixed or carries a justified //lint:<marker>
// exemption; a failure here means a contract regressed (or a new exemption
// needs its justification written down).
func TestRepositoryIsLintClean(t *testing.T) {
	findings, err := lint.Run("../..", lint.Suite(), "./...")
	if err != nil {
		t.Fatalf("running invariant suite on repository: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestSuiteComposition pins the analyzer roster: dropping an analyzer from
// the suite silently un-checks its invariant, so removal has to be
// deliberate.
func TestSuiteComposition(t *testing.T) {
	want := map[string]bool{
		"voteahead":   true,
		"borrowcheck": true,
		"determinism": true,
		"aliasret":    true,
	}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for _, a := range suite {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in suite", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}
