// Golden input for simclock outside internal/: only functions a data-path
// root reaches are in scope.
package fake

import "time"

// dev wires a data-path root, so pump is on a data-path chain.
type dev struct {
	Deliver func()
}

func wire(d *dev) {
	d.Deliver = pump
}

func pump() {
	stamp = time.Now() // want "wall-clock time.Now"
}

// elapsed is reached by no root: a command may read the wall clock.
func elapsed() time.Duration {
	return time.Since(stamp)
}

var stamp time.Time
