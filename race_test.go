//go:build race

package scout_test

// raceEnabled mirrors the race build tag: the race detector makes sync.Pool
// randomly bypass its caches, so allocation budgets over pooled paths cannot
// hold under -race and are skipped.
const raceEnabled = true
