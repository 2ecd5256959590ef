// Command hfdrive generates load against a running hfetchd daemon: it
// emulates N application processes reading a shared dataset with one of
// the canonical access patterns and reports end-to-end time, hit ratio,
// and a latency summary. With -trace it writes per-access samples as
// CSV for offline analysis.
//
// Usage:
//
//	hfdrive -addr host:port [-procs 8] [-pattern sequential]
//	        [-file bench/data] [-size 16777216] [-req 65536]
//	        [-passes 3] [-think 5ms] [-trace out.csv]
//	hfdrive -addr host:port -script workload.json [-trace out.csv]
//
// With -script, a serialized workload document (see
// internal/workloads.Document) is replayed instead of the synthetic
// pattern: its files are created on the daemon and every application
// process runs as one goroutine.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"hfetch/internal/core/remote"
	"hfetch/internal/telemetry"
	"hfetch/internal/workloads"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "hfetchd address")
	procs := flag.Int("procs", 8, "emulated application processes")
	pattern := flag.String("pattern", "sequential", "sequential|strided|repetitive|irregular")
	file := flag.String("file", "bench/data", "dataset file name")
	size := flag.Int64("size", 16<<20, "dataset size in bytes")
	req := flag.Int64("req", 64<<10, "request size in bytes")
	passes := flag.Int("passes", 3, "passes over the dataset per process")
	think := flag.Duration("think", 5*time.Millisecond, "compute time per request")
	traceOut := flag.String("trace", "", "write per-access CSV samples to this file")
	script := flag.String("script", "", "replay a serialized workload document instead")
	flag.Parse()

	if *script != "" {
		replayScript(*addr, *script, *traceOut)
		return
	}

	p := workloads.Pattern(*pattern)
	switch p {
	case workloads.Sequential, workloads.Strided, workloads.Repetitive, workloads.Irregular:
	default:
		log.Fatalf("hfdrive: unknown pattern %q", *pattern)
	}

	admin, err := remote.Dial(*addr)
	if err != nil {
		log.Fatalf("hfdrive: %v", err)
	}
	defer admin.Close()
	if err := admin.CreateFile(*file, *size); err != nil {
		log.Fatalf("hfdrive: create: %v", err)
	}

	rec := telemetry.NewAccessLog(1 << 16)
	total := *size * int64(*passes)
	fmt.Printf("driving %s: %d procs, %s pattern, %d MiB x %d passes\n",
		*addr, *procs, p, *size>>20, *passes)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := remote.Dial(*addr)
			if err != nil {
				log.Printf("proc %d: %v", w, err)
				return
			}
			defer client.Close()
			f, err := client.Open(*file)
			if err != nil {
				log.Printf("proc %d: %v", w, err)
				return
			}
			defer f.Close()
			script := workloads.PatternScript(p, *file, *size, *req, total, *think, int64(w))
			buf := make([]byte, *req)
			for _, acc := range script {
				if acc.Think > 0 {
					time.Sleep(acc.Think)
				}
				t0 := time.Now()
				n, tier, err := f.ReadAtTier(buf[:acc.Len], acc.Off)
				if err != nil {
					log.Printf("proc %d: read: %v", w, err)
					return
				}
				rec.Record(telemetry.AccessSample{
					When: t0, File: *file, Offset: acc.Off, Length: int64(n),
					Tier: tier, Latency: time.Since(t0),
				})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("elapsed: %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("trace:   %s\n", rec.Summary())
	if st, err := admin.ServerStats(); err == nil {
		fmt.Printf("server:  events=%d placements=%d promotions=%d demotions=%d evictions=%d\n",
			st.Events, st.Placements, st.Promotions, st.Demotions, st.Evictions)
	}
	writeTrace(rec, *traceOut)
}

// replayScript replays a serialized workload document against the
// daemon.
func replayScript(addr, path, traceOut string) {
	doc, err := workloads.LoadFile(path)
	if err != nil {
		log.Fatalf("hfdrive: %v", err)
	}
	admin, err := remote.Dial(addr)
	if err != nil {
		log.Fatalf("hfdrive: %v", err)
	}
	defer admin.Close()
	for name, size := range doc.Files {
		if err := admin.CreateFile(name, size); err != nil {
			log.Fatalf("hfdrive: create %s: %v", name, err)
		}
	}
	apps := doc.AppList()
	procs := 0
	for _, a := range apps {
		procs += len(a.Procs)
	}
	fmt.Printf("replaying %q: %d apps, %d procs, %d files\n",
		doc.Name, len(apps), procs, len(doc.Files))

	rec := telemetry.NewAccessLog(1 << 16)
	start := time.Now()
	var wg sync.WaitGroup
	for _, app := range apps {
		for _, sc := range app.Procs {
			wg.Add(1)
			go func(sc workloads.Script) {
				defer wg.Done()
				client, err := remote.Dial(addr)
				if err != nil {
					log.Print(err)
					return
				}
				defer client.Close()
				handles := map[string]*remote.File{}
				defer func() {
					for _, f := range handles {
						f.Close()
					}
				}()
				var buf []byte
				for _, acc := range sc {
					if acc.Think > 0 {
						time.Sleep(acc.Think)
					}
					f := handles[acc.File]
					if f == nil {
						f, err = client.Open(acc.File)
						if err != nil {
							log.Print(err)
							return
						}
						handles[acc.File] = f
					}
					if int64(len(buf)) < acc.Len {
						buf = make([]byte, acc.Len)
					}
					t0 := time.Now()
					n, tier, err := f.ReadAtTier(buf[:acc.Len], acc.Off)
					if err != nil {
						log.Print(err)
						return
					}
					rec.Record(telemetry.AccessSample{
						When: t0, File: acc.File, Offset: acc.Off, Length: int64(n),
						Tier: tier, Latency: time.Since(t0),
					})
				}
			}(sc)
		}
	}
	wg.Wait()
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("trace:   %s\n", rec.Summary())
	writeTrace(rec, traceOut)
}

func writeTrace(rec *telemetry.AccessLog, path string) {
	if path == "" {
		return
	}
	out, err := os.Create(path)
	if err != nil {
		log.Fatalf("hfdrive: %v", err)
	}
	defer out.Close()
	if err := telemetry.WriteAccessCSV(out, rec.Samples()); err != nil {
		log.Fatalf("hfdrive: %v", err)
	}
	fmt.Printf("wrote %d samples to %s\n", rec.Len(), path)
}
