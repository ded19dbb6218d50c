// Golden input for the nopanic analyzer: a panic fires only where a
// data-path root reaches it. Constructors, init and must* helpers that no
// root reaches may panic; so may any other function off every chain.
package fake

import "errors"

type T struct{}

// New is a constructor: panicking on impossible configuration is allowed.
func New(n int) *T {
	if n < 0 {
		panic("fake: negative size")
	}
	return &T{}
}

// NewThing likewise.
func NewThing() *T { return New(1) }

func init() {
	if false {
		panic("boot-time consistency check")
	}
}

// mustSize is a must* helper: its entire job is converting errors to panics.
func mustSize(n int) int {
	if n < 0 {
		panic("fake: bad size")
	}
	return n
}

// MustGet is the exported spelling of the same convention.
func MustGet(t *T, err error) *T {
	if err != nil {
		panic(err)
	}
	return t
}

// Deliver is data-path code: a bad message must become an error.
func (t *T) Deliver(n int) error {
	if n < 0 {
		panic("fake: negative delivery") // want "panic in fake.(*T).Deliver is reachable from the data path"
	}
	return errors.New("unimplemented")
}

// helper is reached by no root, so its literal's panic is allowed.
func helper() {
	f := func() {
		panic("inner")
	}
	f()
}
