// Package lockbarrier is a barrier package under its test manifest:
// every call into it is device I/O, so the I/O rule is off here, while
// the exit rule still holds.
package lockbarrier

import (
	"errors"
	"sync"
)

type Store struct {
	mu sync.Mutex
	n  int
}

var errFull = errors.New("full")

// write counts as I/O by the manifest; holding the store lock around it
// is the package's own store handling, not a finding.
func (s *Store) write() { s.n++ }

func (s *Store) put() {
	s.mu.Lock()
	s.write()
	s.mu.Unlock()
}

// putOrFail leaks the lock on its error path.
func (s *Store) putOrFail(full bool) error {
	s.mu.Lock() // want `s\.mu locked but not released on every path out of putOrFail`
	if full {
		return errFull
	}
	s.write()
	s.mu.Unlock()
	return nil
}
