//go:build !race

package scout_test

const raceEnabled = false
