// Package releaseclean is the exit rule's negative fixture: every lock
// released on every path.
package releaseclean

import "sync"

type Cache struct {
	mu   sync.Mutex
	data map[string]int
}

func (c *Cache) Get(k string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.data[k]
	return v, ok
}

func (c *Cache) Put(k string, v int) {
	c.mu.Lock()
	c.data[k] = v
	c.mu.Unlock()
}
