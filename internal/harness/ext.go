package harness

import (
	"fmt"
	"sync"
	"time"

	"hfetch"
	"hfetch/internal/workloads"
)

// ExtMultiNode is an extension experiment beyond the paper's figures
// (its future work proposes deploying HFetch at larger scales): a fixed
// population of client processes is spread over 1, 2 and 4 compute
// nodes of an emulated cluster. Segment mappings are global (the
// distributed hashmap), so clients on one node hit segments another
// node's engine prefetched — served through the node-to-node
// communicator. The rows report end-to-end time, hit ratio, and the
// remote-read traffic that appears as the node count grows.
func ExtMultiNode(opts Opts) ([]Row, error) {
	opts = opts.normalized()
	nodeScales := []int{1, 2, 4}
	procs := 16
	fileSize := int64(1 << 20)
	passes := 3
	req := int64(64 << 10)
	if opts.Quick {
		procs = 8
		passes = 2
	}

	var rows []Row
	for _, nodes := range nodeScales {
		var secs, hit, remote float64
		for rep := 0; rep < opts.Repeats; rep++ {
			cfg := hfetch.DefaultConfig()
			cfg.Nodes = nodes
			cfg.SegmentSize = req
			cfg.EngineUpdateThreshold = 10
			cfg.EngineInterval = 50 * time.Millisecond
			// Per-node RAM/NVMe plus a shared burst buffer.
			cfg.Tiers = hfetch.DefaultTiers(fileSize, 2*fileSize, 4*fileSize)
			cluster, err := hfetch.NewCluster(cfg)
			if err != nil {
				return nil, err
			}
			track(cluster.FS().Device())
			for n := 0; n < nodes; n++ {
				for _, st := range cluster.Node(n).Server().Hierarchy().Stores() {
					track(st.Device())
				}
			}
			const file = "ext/shared"
			if err := cluster.CreateFile(file, fileSize); err != nil {
				cluster.Stop()
				return nil, err
			}

			start := time.Now()
			var wg sync.WaitGroup
			var mu sync.Mutex
			var hits, misses int64
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					node := cluster.Node(p % nodes)
					client := node.NewClient()
					f, err := client.Open(file)
					if err != nil {
						return
					}
					defer f.Close()
					buf := make([]byte, req)
					sc := workloads.TimeSteppedCompute(file, fileSize, req, passes, 10*time.Millisecond, 2*time.Millisecond)
					for _, acc := range sc {
						if acc.Think > 0 {
							time.Sleep(acc.Think)
						}
						f.ReadAt(buf[:acc.Len], acc.Off)
					}
					mu.Lock()
					hits += client.Stats().Hits()
					misses += client.Stats().Misses()
					mu.Unlock()
				}(p)
			}
			wg.Wait()
			secs += time.Since(start).Seconds()
			if hits+misses > 0 {
				hit += float64(hits) / float64(hits+misses)
			}
			var rr int64
			for i := 0; i < nodes; i++ {
				reads, _ := cluster.Node(i).Server().RemoteStats()
				rr += reads
			}
			remote += float64(rr)
			cluster.Stop()
		}
		n := float64(opts.Repeats)
		rows = append(rows, Row{
			Figure:   "ext-nodes",
			Config:   fmt.Sprintf("nodes=%d", nodes),
			System:   "hfetch",
			Seconds:  secs / n,
			HitRatio: hit / n,
			Extra:    map[string]float64{"remote_reads": remote / n},
		})
	}
	return rows, nil
}
