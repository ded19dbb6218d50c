// Wall-time guard for the scoutlint suite. The nine analyzers (and the
// data-path call graph they share) run on every `make check` and in the
// tier-1 self-check, so whole-repo analysis must stay interactive: the
// conservative interface resolution and field-based points-to are quadratic
// in the wrong hands, and this file is what notices. It lives at the module
// root (not internal/) because measuring wall time needs the real clock,
// which simclock bans everywhere under internal/.
package scout_test

import (
	"testing"
	"time"

	"scout/internal/lint"
)

// TestScoutlintWallTime fails when one full load+analyze pass over the
// repository exceeds 10 seconds — the budget promised in DESIGN.md.
func TestScoutlintWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis; skipped with -short")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	diags, err := lint.Run(root, lint.All())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	_ = diags // findings are the self-check's business; here only time matters
	if elapsed > 10*time.Second {
		t.Fatalf("full scoutlint pass took %v, budget is 10s", elapsed)
	}
	t.Logf("full scoutlint pass: %v", elapsed)
}

// BenchmarkScoutlint measures one full suite pass (load + type-check +
// graph + nine analyzers): wall time and allocations behind the 10-second
// budget TestScoutlintWallTime enforces.
func BenchmarkScoutlint(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lint.Run(root, lint.All()); err != nil {
			b.Fatal(err)
		}
	}
}
