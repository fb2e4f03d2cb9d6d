// Fixture for lockorder. The test ranks lockorder.Server.a before
// lockorder.Server.b in the documented order; c and d stay unranked, so
// they are cycle-checked only.
package lockorder

import "sync"

type Server struct {
	a sync.Mutex
	b sync.Mutex
	c sync.Mutex
	d sync.Mutex
}

// inverted acquires the ranked pair backwards: a must come before b.
func (s *Server) inverted() {
	s.b.Lock()
	s.a.Lock() // want `acquires lockorder\.Server\.a while holding lockorder\.Server\.b, violating the documented lock order \(lockorder\.Server\.a before lockorder\.Server\.b\)`
	s.a.Unlock()
	s.b.Unlock()
}

// lockA is the helper behind the transitive case.
func (s *Server) lockA() {
	s.a.Lock()
	s.a.Unlock()
}

// transitive inverts the order through a callee: the call may acquire a
// while b is held.
func (s *Server) transitive() {
	s.b.Lock()
	s.lockA() // want `call to lockA may acquire lockorder\.Server\.a while holding lockorder\.Server\.b, violating the documented lock order`
	s.b.Unlock()
}

// spawned propagates the spawner's held set into the goroutine: the
// closure's acquisition of a orders against the held b.
func (s *Server) spawned() {
	s.b.Lock()
	go func() {
		s.a.Lock() // want `acquires lockorder\.Server\.a while holding lockorder\.Server\.b, violating the documented lock order`
		s.a.Unlock()
	}()
	s.b.Unlock()
}

// cd and dc together form a cycle between the unranked c and d; the
// report lands on the first edge site (d acquired under c, below).
func (s *Server) cd() {
	s.c.Lock()
	s.d.Lock() // want `lock-order cycle among lockorder\.Server\.c, lockorder\.Server\.d`
	s.d.Unlock()
	s.c.Unlock()
}

func (s *Server) dc() {
	s.d.Lock()
	s.c.Lock()
	s.c.Unlock()
	s.d.Unlock()
}

// ordered follows the documented order: clean.
func (s *Server) ordered() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

// sequential never holds both: clean.
func (s *Server) sequential() {
	s.b.Lock()
	s.b.Unlock()
	s.a.Lock()
	s.a.Unlock()
}

// twoInstances holds the same class twice (different instances):
// aliasing is out of scope, clean.
func twoInstances(x, y *Server) {
	x.a.Lock()
	y.a.Lock()
	y.a.Unlock()
	x.a.Unlock()
}

// justified departs from the order behind a written justification.
func (s *Server) justified() {
	s.b.Lock()
	//lint:lockorder probe path documented to trylock out of order in DESIGN.md
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}

// tryInverted takes a ranked lock out of order with TryLock: it never
// blocks, but a success still nests a inside b.
func (s *Server) tryInverted() {
	s.b.Lock()
	if s.a.TryLock() { // want `acquires lockorder\.Server\.a while holding lockorder\.Server\.b, violating the documented lock order`
		s.a.Unlock()
	}
	s.b.Unlock()
}

// tryOrdered TryLocks in the documented order: clean.
func (s *Server) tryOrdered() {
	s.a.Lock()
	if !s.b.TryLock() {
		s.a.Unlock()
		return
	}
	s.b.Unlock()
	s.a.Unlock()
}
