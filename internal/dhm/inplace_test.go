package dhm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hfetch/internal/comm"
)

func init() { gob.Register(&point{}) }

// registerPointOps installs the ops these tests drive, the shapes the
// auditor's take: "bump" mutates the key's one *point in place (X counts
// applies, Y sums the argument) and answers X | Y; "drop" deletes and
// answers "gone" when there was something to delete; "swap" is a
// copy-on-write OpFunc.
func registerPointOps(m *Map) {
	m.RegisterResultOp("bump", func(cur any, arg, res []byte) (any, []byte) {
		p, _ := cur.(*point)
		if p == nil {
			p = &point{}
		}
		p.X++
		p.Y += int64(binary.BigEndian.Uint64(arg))
		return p, binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(res, uint64(p.X)), uint64(p.Y))
	})
	m.RegisterResultOp("drop", func(cur any, _, res []byte) (any, []byte) {
		if cur != nil {
			res = append(res, "gone"...)
		}
		return nil, res
	})
	m.RegisterOp("swap", func(cur any, _ []byte) any {
		p, _ := cur.(*point)
		if p == nil {
			return &point{1, 2}
		}
		return &point{p.Y, p.X}
	})
}

func u64(n uint64) []byte { return binary.BigEndian.AppendUint64(nil, n) }

// pointOf reads k's point under its lock, through any node.
func pointOf(t *testing.T, m *Map, k Key) (point, bool) {
	t.Helper()
	var p point
	ok, err := m.ViewKey(k, func(v any) { p = *v.(*point) })
	if err != nil {
		t.Fatalf("ViewKey(%v): %v", k, err)
	}
	return p, ok
}

// TestApplyResultSameBytesLocalAndRemote: an op's answer is the same
// bytes whether the caller owns the key or reaches its owner over the
// wire — for an absent key, an op that deletes, an unknown op and an
// OpFunc, whose answer is its value's encoding.
func TestApplyResultSameBytesLocalAndRemote(t *testing.T) {
	maps := cluster(t, 2)
	for _, m := range maps {
		registerPointOps(m)
	}
	var local, remote Key
	for i := int64(0); local.File == "" || remote.File == ""; i++ {
		if k := (Key{File: "/data/f", Index: i}); maps[0].Owner(k) == "n0" {
			local = k
		} else {
			remote = k
		}
	}
	steps := []struct {
		op      string
		arg     []byte
		want    []byte // appended behind the caller's prefix
		wantErr bool
	}{
		{op: "drop"}, // absent key: nothing to say, nothing created
		{op: "bump", arg: u64(5), want: append(u64(1), u64(5)...)},
		{op: "bump", arg: u64(7), want: append(u64(2), u64(12)...)},
		{op: "nope", wantErr: true},
		{op: "drop", want: []byte("gone")},
		{op: "drop"},
		{op: "swap", want: append([]byte{tagPoint}, append(u64(1), u64(2)...)...)},
		{op: "swap", want: append([]byte{tagPoint}, append(u64(2), u64(1)...)...)},
	}
	for i, st := range steps {
		var got [2][]byte
		for j, k := range []Key{local, remote} {
			out, err := maps[0].ApplyResult(k, st.op, st.arg, []byte("pre"))
			if (err != nil) != st.wantErr {
				t.Fatalf("step %d (%s) on %v: err = %v", i, st.op, k, err)
			}
			got[j] = out
		}
		if want := append([]byte("pre"), st.want...); !bytes.Equal(got[0], want) || !bytes.Equal(got[1], want) {
			t.Fatalf("step %d (%s): local %q, remote %q, want %q", i, st.op, got[0], got[1], want)
		}
	}
	for _, k := range []Key{local, remote} {
		if p, ok := pointOf(t, maps[0], k); !ok || p != (point{2, 1}) {
			t.Fatalf("%v holds %v, %v after the steps", k, p, ok)
		}
		// ApplyKey is the OpFunc call: the new value at either distance,
		// and never the live value of an op that mutates in place.
		if v, err := maps[0].ApplyKey(k, "swap", nil); err != nil || *v.(*point) != (point{1, 2}) {
			t.Fatalf("ApplyKey(%v, swap) = %v, %v", k, v, err)
		}
		if v, err := maps[0].ApplyKey(k, "bump", u64(1)); err != nil || v != nil {
			t.Fatalf("ApplyKey(%v, bump) = %v, %v; want no value out of an in-place op", k, v, err)
		}
		if p, _ := pointOf(t, maps[0], k); p != (point{2, 3}) {
			t.Fatalf("%v holds %v after ApplyKey(bump)", k, p)
		}
	}
}

// TestInPlaceOpsReplayFromWAL: the log of a map whose ops mutate in
// place holds each record as it was under the lock of its last apply, so
// a replay equals the live map.
func TestInPlaceOpsReplayFromWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	wal, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Name: "t", Self: "n0", WAL: wal}, nil)
	registerPointOps(m)
	const keys = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res [16]byte
			for i := 0; i < 400; i++ {
				// Each key belongs to one writer, so log order is apply order.
				k := Key{File: "f", Index: int64(i%(keys/4)*4 + w)}
				if _, err := m.ApplyResult(k, "bump", u64(uint64(i)), res[:0]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := int64(0); i < keys; i += 8 {
		if out, err := m.ApplyResult(Key{File: "f", Index: i}, "drop", nil, nil); err != nil || string(out) != "gone" {
			t.Fatalf("drop = %q, %v", out, err)
		}
	}
	before, _ := os.Stat(path)
	if _, err := m.ApplyResult(Key{File: "never", Index: 1}, "drop", nil, nil); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.Stat(path); after.Size() != before.Size() {
		t.Errorf("an op that left an absent key absent grew the log by %d bytes", after.Size()-before.Size())
	}
	wal.Close()

	state, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(state["t"]), m.LocalLen(); got != want || want != keys-keys/8 {
		t.Fatalf("replayed %d keys, live %d, want %d", got, want, keys-keys/8)
	}
	m.Range(func(k Key, v any) bool {
		if rp, _ := state["t"][k].(*point); rp == nil || *rp != *v.(*point) {
			t.Errorf("%v: replayed %v, live %v", k, rp, v)
		}
		return true
	})
}

// TestConcurrentInPlaceOpsDuringRebalance is TestConcurrentWritesDuring-
// Rebalance with values that are mutated in place: while writers bump
// and readers get through every survivor, the survivors rebalance a
// departed member away. What it holds under -race is that a value only
// leaves its shard lock as bytes (a get's response, a rebalance's put);
// what it checks at the end is that every key settled at a survivor.
func TestConcurrentInPlaceOpsDuringRebalance(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	all := []string{"n0", "n1", "n2", "n3"}
	maps := make([]*Map, len(all))
	for i, name := range all {
		mux := comm.NewMux()
		maps[i] = New(Config{Name: "t", Self: name, Nodes: all, Dialer: inprocDialer{net}}, mux)
		registerPointOps(maps[i])
		net.Join(name, mux)
	}
	const keys = 400
	key := func(i int) Key { return Key{File: "f", Index: int64(i % keys)} }
	for i := 0; i < keys; i++ {
		if _, err := maps[0].ApplyResult(key(i), "bump", u64(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	net.Leave("n3")
	survivors := all[:3]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(2)
		go func(w int) { // a writer: errors are expected while n3 is still an owner
			defer wg.Done()
			var res [16]byte
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				maps[w].ApplyResult(key(w*131+i), "bump", u64(1), res[:0]) //nolint:errcheck
			}
		}(w)
		go func(w int) { // a reader: a local view or a remote get of the same keys
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				maps[w].ViewKey(key(w*97+i), func(v any) { //nolint:errcheck
					if p := v.(*point); p.X < 1 || p.Y < p.X {
						t.Errorf("torn point %+v", *p)
					}
				})
			}
		}(w)
	}
	var rb sync.WaitGroup
	for i := range survivors {
		rb.Add(1)
		go func(i int) {
			defer rb.Done()
			if _, err := maps[i].Rebalance(survivors); err != nil {
				t.Logf("rebalance on %s: %v", survivors[i], err)
			}
		}(i)
	}
	rb.Wait()
	close(stop)
	wg.Wait()

	for i := 0; i < keys; i++ {
		k := key(i)
		out, err := maps[0].ApplyResult(k, "bump", u64(1), nil)
		if err != nil || len(out) != 16 {
			t.Fatalf("post-churn bump %v: %x, %v", k, out, err)
		}
		if owner := maps[0].Owner(k); owner == "n3" {
			t.Fatalf("%v still owned by the departed node", k)
		}
		p, ok := pointOf(t, maps[1], k)
		if !ok || uint64(p.X) != binary.BigEndian.Uint64(out) || p.Y != p.X {
			t.Fatalf("%v reads %+v, %v through n1; its owner answered %x", k, p, ok, out)
		}
	}
}

// TestRegisterOpWhileApplying: the op table is a snapshot replaced
// whole, so registering never blocks or races an apply.
func TestRegisterOpWhileApplying(t *testing.T) {
	m := New(Config{Name: "t", Self: "n0"}, nil)
	registerPointOps(m)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res [16]byte
			for i := 0; i < 2000; i++ {
				if _, err := m.ApplyResult(Key{File: "f", Index: int64(w)}, "bump", u64(1), res[:0]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		m.RegisterOp(fmt.Sprintf("late-%d", i), func(cur any, _ []byte) any { return cur })
	}
	wg.Wait()
	for w := int64(0); w < 4; w++ {
		if p, _ := pointOf(t, m, Key{File: "f", Index: w}); p.X != 2000 {
			t.Errorf("key %d applied %d times of 2000", w, p.X)
		}
	}
	if _, err := m.Apply("k", "late-199", nil); err != nil {
		t.Errorf("an op registered beside the applies is unknown: %v", err)
	}
}

func BenchmarkApplyLocalResult(b *testing.B) {
	m := New(Config{Name: "b", Self: "n0"}, nil)
	registerPointOps(m)
	keys := benchKeys()
	arg := u64(1)
	var res [16]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOut, _ = m.ApplyResult(keys[i%len(keys)], "bump", arg, res[:0])
	}
}

var benchOut []byte

// FuzzParseApplyResp: an apply response head a peer sent parses or is
// refused, never panics, and what parses is what was sent.
func FuzzParseApplyResp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(append([]byte{1}, u64(42)...))
	f.Add([]byte{2, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		found, answer, err := parseApplyResp(b)
		if err != nil {
			if found || answer != nil {
				t.Fatalf("a refused head returned %v, %x", found, answer)
			}
			return
		}
		head := []byte{0}
		if found {
			head[0] = 1
		}
		if !bytes.Equal(append(head, answer...), b) {
			t.Fatalf("%x parsed to found %v, answer %x", b, found, answer)
		}
	})
}
