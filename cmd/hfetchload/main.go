// Command hfetchload drives mixed sequential/random range-read load
// against a live hfetchd HTTP gateway and reports what the client saw:
// request rate, status mix, client-observed TTFB quantiles, and —
// scraped from the daemon's /metrics endpoint after the run — the
// prefetch-effectiveness counters the load should have moved. The CI
// gateway-smoke job uses it as the external load half of a live-daemon
// check: any 5xx fails the run, and -min-timely asserts the sequential
// streams actually produced timely prefetches.
//
// Usage:
//
//	hfetchload [-url http://127.0.0.1:8080] [-ctl 127.0.0.1:7070]
//	           [-files 8] [-file-size 4194304] [-chunk 65536]
//	           [-duration 30s] [-workers 8] [-tenant name]
//	           [-min-timely 1] [-out summary.json]
//
// Unless -ctl is empty, the generator first dials the daemon's control
// port and registers -files synthetic files (load/gw-NN.dat) so the run
// is self-contained against a fresh daemon. Three of every four
// workers stream their file sequentially — the access shape the
// auditor's stream detector hints ahead of — and the rest
// read at random offsets to keep the tier mix honest.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"hfetch/internal/core/remote"
	"hfetch/internal/telemetry"
)

// summary is the machine-readable run report written to -out (and
// always printed to stdout).
type summary struct {
	URL       string  `json:"url"`
	Duration  float64 `json:"duration_seconds"`
	Workers   int     `json:"workers"`
	Files     int     `json:"files"`
	Requests  int64   `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	Status2xx int64   `json:"status_2xx"`
	Status429 int64   `json:"status_429"`
	Status5xx int64   `json:"status_5xx"`
	Other     int64   `json:"status_other"`
	Bytes     int64   `json:"bytes"`
	TTFBP50us float64 `json:"ttfb_p50_us"`
	TTFBP99us float64 `json:"ttfb_p99_us"`
	// Timely/Late/Wasted are the daemon's prefetch lifecycle counters
	// scraped after the run (-1 when /metrics was unreachable). With
	// -targets they are summed across every reachable target daemon.
	Timely int64 `json:"prefetch_timely_total"`
	Late   int64 `json:"prefetch_late_total"`
	Wasted int64 `json:"prefetch_wasted_total"`
	// ScrapedNodes counts the -targets daemons that answered the
	// post-run metrics scrape; StaleTargets names the ones that did not.
	// Both are omitted in single-target runs.
	ScrapedNodes int      `json:"scraped_nodes,omitempty"`
	StaleTargets []string `json:"stale_targets,omitempty"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "gateway base URL")
	ctl := flag.String("ctl", "127.0.0.1:7070", "daemon control address for file creation (empty: files must already exist)")
	files := flag.Int("files", 8, "number of synthetic files to create and read")
	fileSize := flag.Int64("file-size", 4<<20, "size of each synthetic file in bytes")
	chunk := flag.Int64("chunk", 64<<10, "bytes per range request")
	duration := flag.Duration("duration", 30*time.Second, "how long to drive load")
	workers := flag.Int("workers", 8, "concurrent client goroutines")
	tenant := flag.String("tenant", "", "X-Tenant header value (empty: default tenant)")
	targets := flag.String("targets", "", "comma-separated daemon ctl addresses; after the run their telemetry snapshots are scraped and merged (fleet runs)")
	minTimely := flag.Int64("min-timely", -1, "fail unless hfetch_prefetch_timely_total reaches this after the run (negative disables)")
	out := flag.String("out", "", "write the JSON summary to this path as well as stdout")
	flag.Parse()

	if *files <= 0 || *workers <= 0 || *chunk <= 0 || *fileSize < *chunk {
		fatalf("need files/workers > 0 and file-size >= chunk > 0")
	}

	names := make([]string, *files)
	for i := range names {
		names[i] = fmt.Sprintf("load/gw-%02d.dat", i)
	}
	if *ctl != "" {
		c, err := remote.Dial(*ctl)
		if err != nil {
			fatalf("dial ctl %s: %v", *ctl, err)
		}
		for _, name := range names {
			if err := c.CreateFile(name, *fileSize); err != nil {
				c.Close()
				fatalf("create %s: %v", name, err)
			}
		}
		c.Close()
	}

	base := strings.TrimSuffix(*url, "/")
	ttfb := &telemetry.Histogram{}
	var mu sync.Mutex
	var total counts
	deadline := time.Now().Add(*duration)
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, *workers)
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local, err := drive(w, base, names[w%len(names)], *fileSize, *chunk, *tenant, deadline, ttfb)
			mu.Lock()
			total.merge(local)
			mu.Unlock()
			if err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	elapsed := time.Since(start)
	for err := range errCh {
		fatalf("%v", err)
	}

	s := summary{
		URL:       base,
		Duration:  elapsed.Seconds(),
		Workers:   *workers,
		Files:     *files,
		Requests:  total.total(),
		ReqPerSec: float64(total.total()) / elapsed.Seconds(),
		Status2xx: total.s2xx,
		Status429: total.s429,
		Status5xx: total.s5xx,
		Other:     total.other,
		Bytes:     total.bytes,
	}
	hist := ttfb.Snapshot()
	s.TTFBP50us = float64(hist.Quantile(0.50)) / 1e3
	s.TTFBP99us = float64(hist.Quantile(0.99)) / 1e3
	if *targets != "" {
		s.Timely, s.Late, s.Wasted, s.ScrapedNodes, s.StaleTargets = scrapeTargets(*targets)
	} else {
		s.Timely, s.Late, s.Wasted = scrapePrefetch(base)
	}

	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	raw = append(raw, '\n')
	os.Stdout.Write(raw) //nolint:errcheck // best-effort report
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatalf("%v", err)
		}
	}

	if s.Status5xx > 0 {
		fatalf("%d 5xx responses", s.Status5xx)
	}
	if s.Requests == 0 {
		fatalf("no requests completed")
	}
	if *minTimely >= 0 {
		if s.Timely < 0 {
			fatalf("-min-timely set but %s/metrics was unreachable", base)
		}
		if s.Timely < *minTimely {
			fatalf("timely prefetches %d < required %d", s.Timely, *minTimely)
		}
	}
}

type counts struct {
	s2xx, s429, s5xx, other int64
	bytes                   int64
}

func (c *counts) merge(o counts) {
	c.s2xx += o.s2xx
	c.s429 += o.s429
	c.s5xx += o.s5xx
	c.other += o.other
	c.bytes += o.bytes
}

func (c *counts) total() int64 { return c.s2xx + c.s429 + c.s5xx + c.other }

// drive loops range reads over one file until the deadline. Workers
// 0,1,2 of every four stream sequentially (wrapping at EOF); worker 3
// reads chunk-aligned random offsets.
func drive(w int, base, name string, size, chunk int64, tenant string, deadline time.Time, ttfb *telemetry.Histogram) (counts, error) {
	var local counts
	sequential := w%4 != 3
	rng := rand.New(rand.NewSource(int64(w) + 1))
	client := &http.Client{Timeout: 30 * time.Second}
	chunks := size / chunk
	var next int64
	for time.Now().Before(deadline) {
		off := next * chunk
		if sequential {
			next = (next + 1) % chunks
		} else {
			next = rng.Int63n(chunks)
		}
		req, err := http.NewRequest("GET", base+"/files/"+name, nil)
		if err != nil {
			return local, err
		}
		req.Header.Set("Range",
			"bytes="+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(off+chunk-1, 10))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return local, err
		}
		var first [1]byte
		if n, _ := resp.Body.Read(first[:]); n > 0 {
			ttfb.Observe(int64(time.Since(start)))
			local.bytes += int64(n)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		local.bytes += n
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			local.s2xx++
		case resp.StatusCode == http.StatusTooManyRequests:
			local.s429++
			time.Sleep(5 * time.Millisecond) // back off instead of hammering a shedding gateway
		case resp.StatusCode >= 500:
			local.s5xx++
		default:
			local.other++
		}
	}
	return local, nil
}

// scrapeTargets dials every -targets ctl address, fetches each daemon's
// telemetry snapshot, and merges them into one fleet view; the prefetch
// counters come out of the merged snapshot. Unreachable targets are
// reported, not fatal: a fleet run should survive one dead member.
func scrapeTargets(list string) (timely, late, wasted int64, scraped int, stale []string) {
	timely, late, wasted = -1, -1, -1
	var snaps []telemetry.Snapshot
	for _, addr := range strings.Split(list, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		c, err := remote.Dial(addr)
		if err != nil {
			stale = append(stale, addr)
			continue
		}
		snap, err := c.Metrics()
		c.Close() //nolint:errcheck // read-only connection
		if err != nil {
			stale = append(stale, addr)
			continue
		}
		snaps = append(snaps, snap)
		scraped++
	}
	if scraped == 0 {
		return timely, late, wasted, scraped, stale
	}
	merged := telemetry.MergeSnapshots(snaps...)
	sum := func(name string) int64 {
		var v int64
		for _, m := range merged.Metrics {
			if m.Name == name && m.Hist == nil {
				v += m.Value
			}
		}
		return v
	}
	return sum("hfetch_prefetch_timely_total"), sum("hfetch_prefetch_late_total"),
		sum("hfetch_prefetch_wasted_total"), scraped, stale
}

// scrapePrefetch reads the daemon's Prometheus text endpoint and pulls
// the prefetch lifecycle counters; all -1 when the scrape fails.
func scrapePrefetch(base string) (timely, late, wasted int64) {
	timely, late, wasted = -1, -1, -1
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "hfetch_prefetch_timely_total":
			timely = n
		case "hfetch_prefetch_late_total":
			late = n
		case "hfetch_prefetch_wasted_total":
			wasted = n
		}
	}
	return
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hfetchload: "+format+"\n", args...)
	os.Exit(1)
}
