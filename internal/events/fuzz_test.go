package events

import "testing"

// FuzzHashShard checks the routing-hash contract for arbitrary keys:
// HashOf is deterministic, ShardOf stays in range, and shard choice is consistent with the
// auditor's 64-way epoch striping whenever the shard count divides 64
// (so a shard worker's epoch accesses cluster on a stable stripe
// subset — the property sharded.go's doc comment promises).
func FuzzHashShard(f *testing.F) {
	f.Add("", uint8(0))
	f.Add("a", uint8(3))
	f.Add("/scratch/run42/out.h5", uint8(7))
	f.Add("exactly8b", uint8(15))
	f.Add("file-with-a-long-name-0000000001", uint8(63))
	f.Fuzz(func(t *testing.T, key string, n uint8) {
		shards := int(n)%64 + 1
		if h1, h2 := HashOf(key), HashOf(key); h1 != h2 {
			t.Fatalf("HashOf(%q) not deterministic: %#x vs %#x", key, h1, h2)
		}
		s := ShardOf(Event{File: key}, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%q, %d) = %d, out of range", key, shards, s)
		}
		if 64%shards == 0 {
			stripe := int(HashOf(key) % 64)
			if stripe%shards != s {
				t.Fatalf("shard %d of %d misaligned with epoch stripe %d for %q",
					s, shards, stripe, key)
			}
		}
	})
}
