package dhm

import (
	"fmt"
	"math"
	"testing"
)

// segKeys is the key population of the ownership tests: 10 000
// (file, index) pairs over 100 files.
func segKeys() []Key {
	keys := make([]Key, 0, 10000)
	for f := 0; f < 100; f++ {
		for i := int64(0); i < 100; i++ {
			keys = append(keys, Key{File: fmt.Sprintf("/data/run-%02d/part.h5", f), Index: i})
		}
	}
	return keys
}

func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	return names
}

// TestOwnershipIsRendezvous holds the three properties the fabric relies
// on: shares are even, a departure re-homes only the departed node's
// keys, and every node computes the same owner.
func TestOwnershipIsRendezvous(t *testing.T) {
	keys := segKeys()
	for _, n := range []int{2, 3, 5, 8} {
		names := nodeNames(n)
		views := make([]*Map, n)
		for i, self := range names {
			views[i] = New(Config{Name: "t", Self: self, Nodes: names}, nil)
		}
		// The survivors' view lists them in another order: ownership must
		// not depend on it.
		survivors := make([]string, 0, n-1)
		for i := n - 2; i >= 0; i-- {
			survivors = append(survivors, names[i])
		}
		gone := names[n-1]
		after := New(Config{Name: "t", Self: names[0], Nodes: survivors}, nil)

		share := map[string]int{}
		for _, k := range keys {
			owner := views[0].Owner(k)
			for _, v := range views[1:] {
				if o := v.Owner(k); o != owner {
					t.Fatalf("%d nodes: %v is owned by %s at %s but by %s at %s", n, k, owner, names[0], o, v.cfg.Self)
				}
			}
			share[owner]++
			if o := after.Owner(k); owner != gone && o != owner {
				t.Fatalf("%d nodes: %v moved from %s to %s although its owner survived", n, k, owner, o)
			} else if owner == gone && o == gone {
				t.Fatalf("%d nodes: %v still owned by the departed %s", n, k, gone)
			}
		}
		want := float64(len(keys)) / float64(n)
		for _, name := range names {
			if got := float64(share[name]); math.Abs(got-want) > 0.15*want {
				t.Fatalf("%d nodes: %s owns %d of %d keys, want %.0f ± 15 %%: %v", n, name, share[name], len(keys), want, share)
			}
		}
	}
}

// TestStringKeyIsIndexMinusOne: the string methods are the typed ones at
// Key{File: s, Index: -1}, locally and across nodes.
func TestStringKeyIsIndexMinusOne(t *testing.T) {
	for _, maps := range [][]*Map{{single(t)}, cluster(t, 3)} {
		for i := 0; i < 64; i++ {
			s := fmt.Sprintf("k-%d", i)
			k := Key{File: s, Index: -1}
			if err := maps[0].Put(s, int64(i)); err != nil {
				t.Fatal(err)
			}
			last := maps[len(maps)-1]
			if v, ok, err := last.GetKey(k); err != nil || !ok || v.(int64) != int64(i) {
				t.Fatalf("GetKey(%+v) after Put(%q) = %v, %v, %v", k, s, v, ok, err)
			}
			if err := last.DeleteKey(k); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := maps[0].Get(s); ok {
				t.Fatalf("Get(%q) still finds the entry DeleteKey(%+v) removed", s, k)
			}
			// A segment of the same file is another entry.
			if err := maps[0].PutKey(Key{File: s, Index: 0}, "seg"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := maps[0].Get(s); ok {
				t.Fatalf("Get(%q) finds segment 0's entry", s)
			}
		}
	}
}

func TestLegacyKey(t *testing.T) {
	for _, c := range []struct {
		text string
		want Key
	}{
		{"s|f|0", Key{File: "f", Index: 0}},
		{"m|/data/f|12", Key{File: "/data/f", Index: 12}},
		{"s|a/b|c|42", Key{File: "a/b|c", Index: 42}},
		{"s|nopipe", StringKey("s|nopipe")},
		{"s|f|notanum", StringKey("s|f|notanum")},
		{"s|f|-1", StringKey("s|f|-1")},
		{"x|f|3", StringKey("x|f|3")},
		{"plain", StringKey("plain")},
		{"", StringKey("")},
	} {
		if got := legacyKey(c.text); got != c.want {
			t.Errorf("legacyKey(%q) = %+v, want %+v", c.text, got, c.want)
		}
	}
}

// TestReplayVersion1Log replays testdata/wal_v1.log, written by the last
// commit that keyed the maps by text ("s|data/f|0", "m|data/f|0", and
// one plain string key): its records must land under typed keys. The
// *auditor.Rec values cannot decode here (their gob type belongs to the
// auditor); internal/core/server replays the same file with it linked in.
func TestReplayVersion1Log(t *testing.T) {
	state, err := Replay("testdata/wal_v1.log")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2; i++ {
		k := Key{File: "data/f", Index: i}
		if v, _ := state["hfetch-maps"][k].(string); v != "node0|ram" {
			t.Fatalf("mapping of %v = %q, want node0|ram; state: %v", k, v, state["hfetch-maps"])
		}
	}
	if v, _ := state["hfetch-stats"][StringKey("plain-key")].(int64); v != 7 {
		t.Fatalf("plain-key = %v, want 7; state: %v", v, state["hfetch-stats"])
	}
}

// TestLocalOpsDoNotAllocate: reaching a locally owned entry by its typed
// key costs no allocation, with one node or several.
func TestLocalOpsDoNotAllocate(t *testing.T) {
	for _, nodes := range [][]string{nil, nodeNames(3)} {
		m := New(Config{Name: "t", Self: "n0", Nodes: nodes}, nil)
		m.RegisterOp("keep", func(cur any, _ []byte) any { return cur })
		var k Key
		for i := int64(0); ; i++ {
			if k = (Key{File: "/data/f", Index: i}); m.Owner(k) == "n0" {
				break
			}
		}
		if err := m.PutKey(k, "n0|ram"); err != nil {
			t.Fatal(err)
		}
		arg := make([]byte, 16)
		if n := testing.AllocsPerRun(1000, func() { benchVal, _, _ = m.GetKey(k) }); n != 0 {
			t.Errorf("%d nodes: a local GetKey allocates %.1f times", len(nodes), n)
		}
		if n := testing.AllocsPerRun(1000, func() { benchVal, _ = m.ApplyKey(k, "keep", arg) }); n != 0 {
			t.Errorf("%d nodes: a local ApplyKey of an op returning cur allocates %.1f times", len(nodes), n)
		}
		m.RegisterResultOp("len", func(cur any, arg, res []byte) (any, []byte) {
			return cur, append(res, byte(len(cur.(string))))
		})
		var res [8]byte
		if n := testing.AllocsPerRun(1000, func() { benchOut, _ = m.ApplyResult(k, "len", arg, res[:0]) }); n != 0 || len(benchOut) != 1 || benchOut[0] != 6 {
			t.Errorf("%d nodes: a local ApplyResult into the caller's buffer allocates %.1f times and answers %x", len(nodes), n, benchOut)
		}
	}
}

func benchKeys() []Key {
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = Key{File: fmt.Sprintf("/data/run-%02d/part.h5", i%16), Index: int64(i / 16)}
	}
	return keys
}

func BenchmarkApplyLocal(b *testing.B) {
	m := New(Config{Name: "b", Self: "n0"}, nil)
	m.RegisterOp("inc", func(cur any, _ []byte) any {
		n, _ := cur.(*int64)
		if n == nil {
			n = new(int64)
		}
		*n++
		return n
	})
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVal, _ = m.ApplyKey(keys[i%len(keys)], "inc", nil)
	}
}

func BenchmarkGetLocal(b *testing.B) {
	m := New(Config{Name: "b", Self: "n0"}, nil)
	keys := benchKeys()
	for _, k := range keys {
		m.PutKey(k, "n0|ram") //nolint:errcheck // local map
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVal, _, _ = m.GetKey(keys[i%len(keys)])
	}
}

var benchOwner string

func BenchmarkOwner(b *testing.B) {
	keys := benchKeys()
	for _, n := range []int{1, 2, 8} {
		m := New(Config{Name: "b", Self: "n0", Nodes: nodeNames(n)}, nil)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchOwner = m.Owner(keys[i%len(keys)])
			}
		})
	}
}
