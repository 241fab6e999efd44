package lint

import "testing"

// TestDirectivesHaveOwners checks that every //repro: directive in the
// table is owned by an analyzer the suite runs: a directive whose owner
// is gone is never checked for a reason, and the functions it marks
// are waived by nothing.
func TestDirectivesHaveOwners(t *testing.T) {
	run := map[string]bool{}
	for _, a := range Analyzers() {
		run[a.Name] = true
	}
	for name, d := range directives {
		if !run[d.owner] {
			t.Errorf("%s is owned by %q, which is not in Analyzers()", name, d.owner)
		}
	}
}
