package hfetch

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hfetch/internal/harness/leakcheck"
	"hfetch/internal/tiers"
)

// TestMain holds the whole package to the slab's ledger: segment payloads
// live outside the Go heap, so a cluster that stops without releasing its
// tiers — or a read path that drops a buffer — strands memory no collector
// gives back. Every test here stops what it starts; the run must end with
// nothing in use.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		var inUse int64
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if inUse = tiers.ReadSlabStats().InUseBytes; inUse == 0 {
				break
			}
		}
		if inUse != 0 {
			fmt.Fprintf(os.Stderr, "slab ledger: the package's tests end with %d bytes in use, want 0\n", inUse)
			code = 1
		}
	}
	os.Exit(code)
}

// warm reads every segment of file twice through node and flushes, so the
// placement engine lands the file in node's tiers.
func warm(t *testing.T, node *Node, file string, size int64) {
	t.Helper()
	f, err := node.NewClient().Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	for off := int64(0); off < size; off += 4096 {
		f.ReadAt(buf, off)
		f.ReadAt(buf, off)
	}
	node.Flush()
}

// TestLedgerSingleNode: a node primed, read and stopped gives back every
// byte it drew — its tiers' residents (shared tier included) at Stop.
func TestLedgerSingleNode(t *testing.T) {
	defer leakcheck.Slab(t)()
	start := tiers.ReadSlabStats().InUseBytes
	cluster, err := NewCluster(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 * 4096 // beyond ram: lands across ram, nvme and the shared bb
	cluster.CreateFile("f", size)
	warm(t, cluster.Node(0), "f", size)
	var resident int64
	for _, st := range cluster.Node(0).Server().Hierarchy().Stores() {
		resident += st.Used()
	}
	if resident == 0 {
		t.Fatal("priming landed nothing")
	}
	if got := tiers.ReadSlabStats().InUseBytes - start; got != resident {
		t.Fatalf("InUseBytes grew by %d with %d bytes resident in 4 KiB segments", got, resident)
	}
	c := cluster.Node(0).NewClient()
	f, _ := c.Open("f")
	buf := make([]byte, 3*4096)
	for off := int64(0); off+int64(len(buf)) <= size; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if c.Stats().Hits() == 0 {
		t.Fatalf("no tier hits: %s", c.Stats())
	}
	cluster.Stop()
}

// TestLedgerTCPFabric: cross-node reads over real sockets draw a slab
// buffer per response body on the reading node and pin a tier buffer on
// the serving one; all of it is back once the cluster stops — also when
// the serving node is killed while the reads are in flight.
func TestLedgerTCPFabric(t *testing.T) {
	for _, kill := range []bool{false, true} {
		kill := kill
		t.Run(map[bool]string{false: "reads", true: "kill-mid-read"}[kill], func(t *testing.T) {
			defer leakcheck.Guard(t)()
			defer leakcheck.Slab(t)()
			cfg := fabricConfig(2)
			cfg.ClusterTransport = "tcp"
			cluster, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			const size = 64 * 4096
			cluster.CreateFile("f", size)
			for i := 0; i < 2; i++ {
				if !cluster.ClusterNode(i).Membership().WaitView(2, 5*time.Second) {
					t.Fatalf("node%d never saw both members", i)
				}
			}
			warm(t, cluster.Node(0), "f", size)

			var wg sync.WaitGroup
			var reads atomic.Int64
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					f, err := cluster.Node(1).NewClient().Open("f")
					if err != nil {
						t.Error(err)
						return
					}
					defer f.Close()
					got, want := make([]byte, 4096), make([]byte, 4096)
					for pass := 0; pass < 8; pass++ {
						for off := int64(r) * 4096; off < size; off += 4 * 4096 {
							if n, err := f.ReadAt(got, off); err != nil || n != 4096 {
								t.Errorf("read at %d: n=%d err=%v", off, n, err)
								return
							}
							cluster.FS().ReadAt("f", off, want)
							if !bytes.Equal(got, want) {
								t.Errorf("wrong bytes at %d", off)
								return
							}
							reads.Add(1)
						}
					}
				}(r)
			}
			if kill {
				for reads.Load() < 32 {
					time.Sleep(100 * time.Microsecond)
				}
				cluster.KillNode(0)
			}
			wg.Wait()
			if _, serves := cluster.Node(0).Server().RemoteStats(); serves == 0 {
				t.Fatal("no read crossed the fabric")
			}
		})
	}
}

// TestLedgerInvalidationChurn: writes invalidate a file that readers are
// reading and the mover is landing — WriteAt → CancelFile → DeleteFile
// beside pinned views and in-flight fetches. Whatever order they meet
// in, every buffer finds its way back.
func TestLedgerInvalidationChurn(t *testing.T) {
	defer leakcheck.Guard(t)()
	defer leakcheck.Slab(t)()
	cfg := fastConfig(1)
	cfg.EventShards = 4
	cfg.EngineInterval = 5 * time.Millisecond
	cluster, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	const size = 64 * 4096
	files := []string{"a", "b", "c"}
	for _, f := range files {
		cluster.CreateFile(f, size)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f, err := cluster.Node(0).NewClient().Open(files[r])
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			buf := make([]byte, 2*4096)
			for off := int64(0); ; off = (off + 4096) % (size - 4096) {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.ReadAt(buf, off); err != nil {
					t.Errorf("read %s at %d: %v", files[r], off, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		f, _ := cluster.Node(0).NewClient().Open(files[i%len(files)])
		if err := f.WriteAt(int64(i)*64, 32); err != nil {
			t.Fatal(err)
		}
		f.Close()
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
}
