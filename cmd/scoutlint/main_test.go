package main

import "testing"

// TestRunArgs checks run's argument handling: the whole module is always
// analyzed, so any package pattern other than ./... is a usage error rather
// than a silently ignored argument. -list exits before loading the module,
// which keeps every case fast.
func TestRunArgs(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-list"}, 0},
		{[]string{"-list", "./..."}, 0},
		{[]string{"-h"}, 0},
		{[]string{"./internal/sim"}, 2},
		{[]string{"-list", "./internal/sim"}, 2},
		{[]string{"-list", "./...", "./..."}, 2},
		{[]string{"-list", "."}, 2},
		{[]string{"-allow", "/dev/null"}, 2},
		{[]string{"-rules", "nopanic"}, 2},
	}
	for _, tc := range cases {
		if got := run(tc.args); got != tc.want {
			t.Errorf("run(%q) = %d, want %d", tc.args, got, tc.want)
		}
	}
}
