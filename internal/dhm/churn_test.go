package dhm

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hfetch/internal/comm"
)

// TestConcurrentWritesDuringRebalance hammers the map with writes while
// every surviving node rebalances away a departed member, under -race.
// The contract under test: a key written mid-migration follows the NEW
// ownership (Rebalance swaps membership before migrating), so after the
// dust settles every key is readable and owned by a survivor.
func TestConcurrentWritesDuringRebalance(t *testing.T) {
	net := comm.NewInprocNetwork(nil)
	all := []string{"n0", "n1", "n2", "n3"}
	maps := make([]*Map, len(all))
	for i, name := range all {
		mux := comm.NewMux()
		maps[i] = New(Config{Name: "t", Self: name, Nodes: all, Dialer: inprocDialer{net}}, mux)
		net.Join(name, mux)
	}

	// Seed the keyspace so the departing node owns real data.
	const keys = 400
	for i := 0; i < keys; i++ {
		if err := maps[0].Put(fmt.Sprintf("key-%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// n3 departs. Its map stops serving first (a crash, not a drain).
	net.Leave("n3")
	survivors := []string{"n0", "n1", "n2"}

	// Writers churn the keyspace through every survivor while the
	// survivors rebalance concurrently.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("key-%d", (w*131+i)%keys)
				// Errors are expected mid-churn (a write can race the
				// membership swap and target n3); the post-condition
				// below is what matters.
				maps[w].Put(k, int64(i)) //nolint:errcheck
				i++
			}
		}()
	}
	var rb sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		rb.Add(1)
		go func() {
			defer rb.Done()
			if _, err := maps[i].Rebalance(survivors); err != nil {
				// Migration pushes can race a peer's own swap; the keys
				// stay local in that case, which Range below still sees.
				t.Logf("rebalance on %s: %v", survivors[i], err)
			}
		}()
	}
	rb.Wait()
	close(stop)
	wg.Wait()

	// Re-drive writes once after the churn so keys that raced the swap
	// settle at their final owner, then verify the full keyspace.
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := maps[0].Put(k, int64(i)); err != nil {
			t.Fatalf("post-churn put %q: %v", k, err)
		}
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		owner := maps[0].Owner(StringKey(k))
		if owner == "n3" {
			t.Fatalf("key %q still owned by departed node", k)
		}
		v, ok, err := maps[1].Get(k)
		if err != nil || !ok {
			t.Fatalf("key %q unreadable after churn: ok=%v err=%v (owner %s)", k, ok, err, owner)
		}
		if v.(int64) != int64(i) {
			t.Fatalf("key %q = %v, want %d", k, v, i)
		}
	}

	// The mid-migration contract, deterministically: a key whose old
	// owner was the departed node, written after the membership swap,
	// lands at its new owner.
	oldRing := New(Config{Name: "t", Self: "n0", Nodes: all}, nil)
	probe := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if oldRing.Owner(StringKey(k)) == "n3" {
			probe = k
			break
		}
	}
	if err := maps[0].Put(probe, int64(42)); err != nil {
		t.Fatal(err)
	}
	newOwner := maps[0].Owner(StringKey(probe))
	for i, name := range survivors {
		if name != newOwner {
			continue
		}
		if v, ok, _ := maps[i].Get(probe); !ok || v.(int64) != 42 {
			t.Fatalf("probe key not at new owner %s: ok=%v v=%v", newOwner, ok, v)
		}
	}
}

// TestWALCrashRecoveryRejoin emulates satellite 3's kill/restart: a node
// with WAL-backed maps dies mid-workload, restarts from its log, and
// rejoins — its segment statistics survive the crash.
func TestWALCrashRecoveryRejoin(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")

	// First life: log a working set, then crash without closing cleanly
	// (the file is abandoned, as a kill -9 would).
	{
		wal, err := OpenWAL(walPath)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{Name: "t", Self: "n0", WAL: wal}, nil)
		for i := 0; i < 100; i++ {
			if err := m.PutKey(Key{File: "f", Index: int64(i)}, int64(i*i)); err != nil {
				t.Fatal(err)
			}
		}
		// Torn tail: simulate a crash mid-append by truncating the last
		// few bytes of the log.
		info, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(walPath, info.Size()-3); err != nil {
			t.Fatal(err)
		}
	}

	// Second life: replay, restore, rejoin a 2-node cluster, rebalance.
	state, err := Replay(walPath)
	if err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	net := comm.NewInprocNetwork(nil)
	mux0, mux1 := comm.NewMux(), comm.NewMux()
	m0 := New(Config{Name: "t", Self: "n0", Nodes: []string{"n0"}, WAL: wal, Dialer: inprocDialer{net}}, mux0)
	m0.Restore(state)
	net.Join("n0", mux0)

	recovered := m0.LocalLen()
	if recovered < 99 { // the torn record may legitimately be lost
		t.Fatalf("recovered %d keys, want >= 99", recovered)
	}

	m1 := New(Config{Name: "t", Self: "n1", Nodes: []string{"n0", "n1"}, Dialer: inprocDialer{net}}, mux1)
	net.Join("n1", mux1)
	migrated, err := m0.Rebalance([]string{"n0", "n1"})
	if err != nil {
		t.Fatalf("rejoin rebalance: %v", err)
	}
	if migrated == 0 {
		t.Fatal("rejoin migrated no keys to the new member")
	}

	// The whole recovered keyspace is readable from either node.
	for i := 0; i < 99; i++ {
		k := Key{File: "f", Index: int64(i)}
		v, ok, err := m1.GetKey(k)
		if err != nil || !ok {
			t.Fatalf("key %v lost across crash+rejoin: ok=%v err=%v", k, ok, err)
		}
		if v.(int64) != int64(i*i) {
			t.Fatalf("key %v = %v, want %d", k, v, i*i)
		}
	}
	_ = m1
}
