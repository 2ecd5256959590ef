// Quickstart: boot a single-node HFetch cluster, read a file cold (from
// the PFS), let the server-push engine place the touched segments in the
// hierarchy, and read it again warm (from RAM).
package main

import (
	"fmt"
	"log"
	"time"

	"hfetch"
)

func main() {
	cfg := hfetch.DefaultConfig()
	cfg.SegmentSize = 1 << 20
	cfg.EngineUpdateThreshold = hfetch.ReactivenessHigh

	cluster, err := hfetch.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	const fileSize = 16 << 20
	if err := cluster.CreateFile("data/quickstart", fileSize); err != nil {
		log.Fatal(err)
	}

	client := cluster.Node(0).NewClient()
	f, err := client.Open("data/quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	buf := make([]byte, 1<<20)

	// Cold pass: reads go to the parallel file system until the auditor
	// has seen three in order and the engine gets ahead of the reader.
	start := time.Now()
	for off := int64(0); off < fileSize; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			log.Fatal(err)
		}
	}
	cold := time.Since(start)

	// Give the placement engine a beat, then read again: the same bytes
	// now come from the prefetching hierarchy.
	cluster.Node(0).Flush()
	start = time.Now()
	for off := int64(0); off < fileSize; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			log.Fatal(err)
		}
	}
	warm := time.Since(start)

	fmt.Printf("cold pass: %8v (mostly PFS)\n", cold.Round(time.Millisecond))
	fmt.Printf("warm pass: %8v (%s)\n", warm.Round(time.Millisecond), client.Stats())
	fmt.Printf("speedup:   %.1fx\n", float64(cold)/float64(warm))
}
