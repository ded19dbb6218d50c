package fake

import "sync"

type stage struct {
	mu      sync.Mutex
	Deliver func()
	n       int
}

// Inject is a data-path root by name.
func Inject(s *stage) {
	s.mu.Lock()
	s.bump()    // OK: nothing below reaches a callback
	s.forward() // want "invokes a callback"
	s.mu.Unlock()
	s.forward() // OK: lock released
}

func (s *stage) bump() { s.n++ }

// forward hands off through one more hop; the callback is two frames below
// the locked call site.
func (s *stage) forward() { s.hop() }

func (s *stage) hop() {
	if s.Deliver != nil {
		s.Deliver()
	}
}
