package lint

import (
	"strings"
	"testing"
)

// TestErrCheckDeep covers errcheck's data-path rule, which cannot use the
// // want golden harness: any comment on a discard's line (or the line above)
// is itself the justification the analyzer accepts, so the positives must
// stay comment-free. Findings are asserted per function instead.
func TestErrCheckDeep(t *testing.T) {
	mod := loadTestPackage(t, "testdata/errcheckdeep", "scout/internal/fake")
	diags := RunModule(mod, []*Analyzer{ErrCheck})

	perFunc := map[string]int{}
	for _, d := range diags {
		switch {
		case strings.Contains(d.Msg, "in fake.Inject;"):
			perFunc["Inject"]++
		case strings.Contains(d.Msg, "in fake.relay;"):
			perFunc["relay"]++
		default:
			t.Errorf("finding in unexpected function: %s", d)
		}
		if len(d.Chain) == 0 || !strings.Contains(d.Chain[0], "[root:") {
			t.Errorf("finding lacks a root-anchored chain: %s %v", d, d.Chain)
		}
	}
	if perFunc["Inject"] != 2 {
		t.Errorf("Inject: %d bare discards flagged, want 2 (the justified ones must pass)", perFunc["Inject"])
	}
	if perFunc["relay"] != 1 {
		t.Errorf("relay: %d bare discards flagged, want 1 (offPath is unreachable)", perFunc["relay"])
	}
}

// TestChainRendering: the graph-backed analyzers must attach the
// root-to-finding call chain `scoutlint -why` prints.
func TestChainRendering(t *testing.T) {
	mod := loadTestPackage(t, "testdata/detlint", "scout/internal/fake")
	diags := RunModule(mod, []*Analyzer{DetLint})
	var helperChain []string
	for _, d := range diags {
		if strings.Contains(d.Msg, "data-path") && d.Line > 45 { // the loop inside helper
			helperChain = d.Chain
		}
	}
	if len(helperChain) != 2 {
		t.Fatalf("helper finding chain = %v, want root + one hop", helperChain)
	}
	if !strings.HasPrefix(helperChain[0], "fake.Inject [root: delivery entry point") {
		t.Errorf("chain root frame = %q", helperChain[0])
	}
	if !strings.HasPrefix(helperChain[1], "-> fake.helper (det.go:") {
		t.Errorf("chain hop frame = %q", helperChain[1])
	}
}
