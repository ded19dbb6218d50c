// Golden input for the locksafe analyzer: callbacks invoked under a held
// mutex fire, directly or through a called literal or method; callback-free
// methods and calls after release do not.
package fake

import "sync"

type Pool struct {
	mu     sync.Mutex
	onFree func(int)
}

func (p *Pool) Bad(n int) {
	p.mu.Lock()
	p.onFree(n) // want "callback p.onFree invoked while p.mu is held"
	p.mu.Unlock()
}

func (p *Pool) BadDeferred(cb func()) {
	p.mu.Lock()
	defer p.mu.Unlock() // lock held to function end
	cb()                // want "callback cb invoked while p.mu is held"
}

func (p *Pool) GoodSnapshot(n int) {
	p.mu.Lock()
	cb := p.onFree
	p.mu.Unlock()
	cb(n) // no finding: mutex released before the call
}

func (p *Pool) GoodMethod() {
	p.mu.Lock()
	p.compact() // no finding: declared method, not a function value
	p.mu.Unlock()
}

func (p *Pool) GoodBefore(cb func()) {
	cb() // no finding: called before the lock
	p.mu.Lock()
	p.mu.Unlock()
}

func (p *Pool) compact() {}

type Cache struct {
	mu sync.RWMutex
	f  func()
}

func (c *Cache) BadUnderReadLock() {
	c.mu.RLock()
	c.f() // want "callback c.f invoked while c.mu is held (RLock"
	c.mu.RUnlock()
}

func (p *Pool) BadInline(n int) {
	p.mu.Lock()
	func() { // want "fake.(*Pool).BadInline$1 called while p.mu is held (Lock"
		p.onFree(n)
	}()
	p.mu.Unlock()
}

func (c *Cache) BadNamedUnderReadLock() {
	c.mu.RLock()
	c.fire() // want "fake.(*Cache).fire called while c.mu is held (RLock"
	c.mu.RUnlock()
}

func (c *Cache) fire() { c.f() }
