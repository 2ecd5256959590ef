package dhm

import (
	"fmt"
)

// Rebalance adapts the map to a new membership list: keys whose
// rendezvous owner moved are pushed to their new owner, then dropped
// locally. It returns how many keys were migrated away. Thanks to
// rendezvous hashing only keys owned by departed nodes (or claimed by
// joined ones) move; everything else stays put.
//
// Rebalance is cooperative: every surviving node must call it with the
// same new membership. Concurrent writes during a rebalance follow the
// new ownership (callers should swap membership first, then migrate),
// so a key written mid-migration lands at its new owner either way and
// the stale local copy is discarded.
func (m *Map) Rebalance(newNodes []string) (migrated int, err error) {
	m.setMembers(newNodes)

	// Collect local keys that no longer belong here.
	type move struct {
		key   Key
		owner string
	}
	var moving []move
	m.Range(func(k Key, _ any) bool {
		if s, owner := m.locate(k); s == nil {
			moving = append(moving, move{k, owner})
		}
		return true
	})
	var firstErr error
	for _, e := range moving {
		// The put that ships a value is encoded under its shard lock: an
		// in-place op may change the value as soon as the lock is released.
		s := m.shardAt(e.key.hash())
		put := newReq(e.key, "", nil)
		s.mu.RLock()
		val, ok := s.m[e.key]
		var err error
		if ok {
			put.B, err = appendValue(put.B, val)
		}
		s.mu.RUnlock()
		if !ok {
			put.Release()
			continue // deleted since the scan
		}
		if err == nil {
			rep, perr := m.remote(rpcPut, e.owner, put.B)
			rep.Release()
			err = perr
		}
		put.Release()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dhm: rebalance %v: %w", e.key, err)
			}
			continue // keep the local copy rather than lose the key
		}
		m.localDelete(m.shardAt(e.key.hash()), e.key)
		migrated++
	}
	return migrated, firstErr
}

// Members returns the current membership list (empty = single node).
func (m *Map) Members() []string {
	return append([]string(nil), m.members.Load().names...)
}
