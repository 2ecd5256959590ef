package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hfetch"
	"hfetch/internal/core/seg"
	"hfetch/internal/events"
	"hfetch/internal/workloads"
)

// workload is one named traffic mix. setup builds the cluster and inputs
// into e (and is timed as setup_s); run drives the timed window.
type workload struct {
	name string
	// opSpan names the span recorded around every op of the traced run.
	opSpan string
	// free marks a free-device workload: devsim must report no busy time.
	free  bool
	setup func(e *env) error
	run   func(e *env) *window
}

var allWorkloads = []workload{
	{"warm_read", "File.ReadAt", true, setupWarm, runWarmRead},
	{"event_storm", "Server.PostEvent", true, setupStorm, runEventStorm},
	{"gateway_range", "GET", true, setupGateway, runGatewayRange},
	{"cross_node_read", "Server.ReadPrefetched", true, setupCrossNode, runCrossNodeRead},
	{"montage_workflow", "File.ReadAt", false, setupMontage, runMontage},
	{"read_write_mix", "File.ReadAt", true, setupWarm, runReadWriteMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The warm data set: 64 files of 32 segments (128 MiB) under a 256 MiB
// first tier, so it fits the cache with room to spare.
const (
	warmFiles = 64
	warmSegs  = 32
)

var threeTiers = []string{"ram", "nvme", "bb"}

// ---- warm_read ----

func setupWarm(e *env) error {
	cfg := shippedConfig(e.traced)
	cfg.Tiers = freeTiers(threeTiers, []int64{256 << 20, 256 << 20, 256 << 20})
	c, err := hfetch.NewCluster(cfg)
	if err != nil {
		return err
	}
	e.cluster = c
	if err := e.createFiles("bench/warm", warmFiles, warmSegs); err != nil {
		return err
	}
	return e.prime()
}

// openAll opens every file of the data set on its own client, so that a
// generator shares neither handles nor hit counters with another.
func (e *env) openAll(node *hfetch.Node) (*hfetch.Client, []*hfetch.File, error) {
	client := node.NewClient()
	files := make([]*hfetch.File, len(e.data.names))
	for i, name := range e.data.names {
		f, err := client.Open(name)
		if err != nil {
			return nil, nil, err
		}
		files[i] = f
		e.closers = append(e.closers, func() { f.Close() })
	}
	return client, files, nil
}

// warmLoop is the closed loop of random aligned 64 KiB File.ReadAt that
// warm_read runs twice and read_write_mix once. check decides whether the
// bytes read are right.
func (e *env) warmLoop(g int, files []*hfetch.File, check func(op readOp, buf []byte) bool) func(*recorder, time.Time) {
	rng := genRNG(e.seed, g)
	buf := make([]byte, segSize)
	return func(r *recorder, deadline time.Time) {
		r.loop(deadline, func() bool {
			op := nextRead(rng, len(files), e.data.segs, 1)
			n, err := files[op.file].ReadAt(buf, int64(op.seg)*segSize)
			return err == nil && n == segSize && check(op, buf)
		})
	}
}

func runWarmRead(e *env) *window {
	node := e.cluster.Node(0)
	loops := make([]func(*recorder, time.Time), generators)
	clients := make([]*hfetch.Client, generators)
	for g := range loops {
		client, files, err := e.openAll(node)
		if err != nil {
			return failedWindow(err)
		}
		clients[g] = client
		loops[g] = e.warmLoop(g, files, func(op readOp, buf []byte) bool {
			return e.data.checkRead(op.file, op.seg, buf)
		})
	}
	w := e.timed(e.window(), loops)
	for _, c := range clients {
		w.hits += c.Stats().Hits()
		w.misses += c.Stats().Misses()
	}
	return w
}

func failedWindow(err error) *window {
	w := &window{extraFailed: 1}
	w.note("window not run: %v", err)
	return w
}

// ---- event_storm ----

// The storm touches 256 files of 32 segments (512 MiB) under tiers of
// 1, 2 and 4 MiB, so every placement pass evicts as much as it places.
const (
	stormFiles = 256
	stormSegs  = 32
)

func setupStorm(e *env) error {
	cfg := shippedConfig(e.traced)
	cfg.Tiers = freeTiers(threeTiers, []int64{1 << 20, 2 << 20, 4 << 20})
	c, err := hfetch.NewCluster(cfg)
	if err != nil {
		return err
	}
	e.cluster = c
	e.data = dataset{names: make([]string, stormFiles), segs: stormSegs}
	srv := c.Node(0).Server()
	for i := range e.data.names {
		name := fmt.Sprintf("bench/storm-%03d.dat", i)
		e.data.names[i] = name
		if err := c.CreateFile(name, stormSegs*segSize); err != nil {
			return err
		}
		// Only watched files generate events (inotify semantics).
		srv.StartEpoch(name, stormSegs*segSize)
	}
	return nil
}

// nextEvent draws one read event over the storm's files.
func nextEvent(rng *rand.Rand, d *dataset, at time.Time) events.Event {
	op := nextRead(rng, len(d.names), d.segs, 1)
	return events.Event{Op: events.OpRead, File: d.names[op.file], Offset: int64(op.seg) * segSize, Length: segSize, Time: at}
}

func runEventStorm(e *env) *window {
	srv := e.cluster.Node(0).Server()
	mon := srv.Monitor()
	posted0, dropped0 := mon.QueueStats()
	consumed0 := mon.Consumed()
	loops := make([]func(*recorder, time.Time), generators)
	for g := range loops {
		rng := genRNG(e.seed, g)
		loops[g] = func(r *recorder, deadline time.Time) {
			// The posting policy is "block": a full ring parks the poster, so
			// the loop is closed on the ring's back-pressure.
			r.loop(deadline, func() bool {
				srv.PostEvent(nextEvent(rng, &e.data, time.Now()))
				return true
			})
		}
	}
	w := e.timed(e.window(), loops)
	var attempted int64
	for _, r := range w.recs {
		attempted += int64(r.n)
	}
	// The window ends when the consumers have handled every event, found by
	// polling a counter under a deadline, never by a Flush.
	limit := time.Now().Add(barrierLimit)
	for mon.Consumed()-consumed0 < attempted && time.Now().Before(limit) {
		time.Sleep(200 * time.Microsecond)
	}
	w.finish()
	posted, dropped := mon.QueueStats()
	if lost := attempted - (mon.Consumed() - consumed0); lost > 0 {
		w.extraFailed += lost
		w.note("%d events not consumed %v after the last post", lost, barrierLimit)
	}
	if posted-posted0 != attempted || dropped != dropped0 {
		w.extraFailed += attempted - (posted - posted0) + dropped - dropped0
		w.note("queue accepted %d of %d events and dropped %d", posted-posted0, attempted, dropped-dropped0)
	}
	return w
}

// ---- gateway_range ----

const rangeSegs = 4 // one GET reads 4 segments, 256 KiB

func setupGateway(e *env) error {
	if err := setupWarm(e); err != nil {
		return err
	}
	ts := httptest.NewServer(e.cluster.Node(0).GatewayHandler())
	e.closers = append(e.closers, ts.Close)
	e.gatewayURL = ts.URL
	return nil
}

// getRange issues one ranged GET over client and drains the body into buf.
// It returns the time of the first body byte and whether the response was
// the 206 the range asks for, with the right Content-Range, length and
// bytes.
func (e *env) getRange(client *http.Client, op readOp, buf []byte) (firstByte time.Time, status int, ok bool) {
	off := int64(op.seg) * segSize
	last := off + int64(len(buf)) - 1
	req, err := http.NewRequest(http.MethodGet, e.gatewayURL+"/files/"+e.data.names[op.file], nil)
	if err != nil {
		return time.Time{}, 0, false
	}
	req.Header.Set("Range", "bytes="+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(last, 10))
	resp, err := client.Do(req)
	if err != nil {
		return time.Time{}, 0, false
	}
	defer resp.Body.Close()
	n, err := resp.Body.Read(buf)
	firstByte = time.Now()
	for err == nil && n < len(buf) {
		var m int
		m, err = resp.Body.Read(buf[n:])
		n += m
	}
	if err == nil {
		// A keep-alive connection is reused only once the body is read to EOF.
		_, err = io.Copy(io.Discard, resp.Body)
	} else if err == io.EOF {
		err = nil
	}
	size := int64(e.data.segs) * segSize
	want := "bytes " + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(last, 10) + "/" + strconv.FormatInt(size, 10)
	ok = err == nil && resp.StatusCode == http.StatusPartialContent && n == len(buf) &&
		resp.Header.Get("Content-Range") == want && e.data.checkRead(op.file, op.seg, buf)
	return firstByte, resp.StatusCode, ok
}

func runGatewayRange(e *env) *window {
	srv := e.cluster.Node(0).Server()
	hits0, misses0 := srv.IOStats().Hits(), srv.IOStats().Misses()
	var mu sync.Mutex
	var ttfb []int64
	status := map[int]int64{}
	loops := make([]func(*recorder, time.Time), generators)
	for g := range loops {
		rng := genRNG(e.seed, g)
		// One keep-alive connection per generator.
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		e.closers = append(e.closers, tr.CloseIdleConnections)
		client := &http.Client{Transport: tr}
		buf := make([]byte, rangeSegs*segSize)
		loops[g] = func(r *recorder, deadline time.Time) {
			var myTTFB []int64
			myStatus := map[int]int64{}
			for {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				op := nextRead(rng, len(e.data.names), e.data.segs, rangeSegs)
				first, code, ok := e.getRange(client, op, buf)
				end := time.Now()
				if !first.IsZero() {
					myTTFB = append(myTTFB, int64(first.Sub(start)))
					r.child("GET first byte", start, first)
					r.child("GET body", first, end)
				}
				myStatus[code]++
				r.add(start, end, ok)
			}
			mu.Lock()
			ttfb = append(ttfb, myTTFB...)
			for c, n := range myStatus {
				status[c] += n
			}
			mu.Unlock()
		}
	}
	w := e.timed(e.window(), loops)
	w.hits = srv.IOStats().Hits() - hits0
	w.misses = srv.IOStats().Misses() - misses0
	sort.Slice(ttfb, func(i, j int) bool { return ttfb[i] < ttfb[j] })
	w.layer["gateway.ttfb_p50_us"] = float64(percentile(ttfb, 0.5)) / 1e3
	for c, n := range status {
		switch {
		case c >= 200 && c < 300:
			w.layer["gateway.status_2xx"] += float64(n)
		case c >= 400 && c < 500:
			w.layer["gateway.status_4xx"] += float64(n)
		case c >= 500:
			w.layer["gateway.status_5xx"] += float64(n)
		}
	}
	return w
}

// ---- cross_node_read ----

func setupCrossNode(e *env) error {
	cfg := shippedConfig(e.traced)
	cfg.Nodes = 2
	cfg.ClusterFabric = true
	cfg.ClusterTransport = "tcp"
	// No shared tier: node 1 can reach node 0's segments only over the wire.
	cfg.Tiers = freeTiers([]string{"ram", "nvme"}, []int64{256 << 20, 256 << 20})
	c, err := hfetch.NewCluster(cfg)
	if err != nil {
		return err
	}
	e.cluster = c
	e.reader = 1
	for i := 0; i < c.Nodes(); i++ {
		if !c.ClusterNode(i).Membership().WaitView(c.Nodes(), barrierLimit) {
			return fmt.Errorf("node%d never saw the %d-member view", i, c.Nodes())
		}
	}
	if err := e.createFiles("bench/xnode", warmFiles, warmSegs); err != nil {
		return err
	}
	return e.prime()
}

func runCrossNodeRead(e *env) *window {
	srv := e.cluster.Node(1).Server()
	reads0, _ := srv.RemoteStats()
	var hits atomic.Int64
	loops := make([]func(*recorder, time.Time), generators)
	for g := range loops {
		rng := genRNG(e.seed, g)
		buf := make([]byte, segSize)
		loops[g] = func(r *recorder, deadline time.Time) {
			// No event is posted, so node 0 keeps every segment and each read
			// crosses the wire.
			r.loop(deadline, func() bool {
				op := nextRead(rng, len(e.data.names), e.data.segs, 1)
				n, _, ok := srv.ReadPrefetched(seg.ID{File: e.data.names[op.file], Index: int64(op.seg)}, 0, buf)
				if ok {
					hits.Add(1)
				}
				return ok && n == segSize && e.data.checkRead(op.file, op.seg, buf)
			})
		}
	}
	w := e.timed(e.window(), loops)
	var ops int64
	for _, r := range w.recs {
		ops += int64(r.n)
	}
	w.hits, w.misses = hits.Load(), ops-hits.Load()
	reads, _ := srv.RemoteStats()
	if remote := reads - reads0; float64(remote) < 0.99*float64(ops) {
		w.note("only %d of %d reads went to the peer", remote, ops)
	}
	return w
}

// ---- montage_workflow ----

const (
	montageImage = 4 << 20
	montageThink = 10 * time.Millisecond
)

// montageConfig scales the workflow to the window: the modeled device
// times, not this machine, set the makespan, which comes to about
// 0.3 s per step of a phase plus the cold first phase.
func montageConfig(seconds float64) workloads.MontageConfig {
	perPhase := int(seconds*1.2 + 0.5)
	if perPhase < 1 {
		perPhase = 1
	}
	return workloads.MontageConfig{
		Procs: generators, ImageBytes: montageImage, Images: 4 * perPhase,
		Req: segSize, Steps: 4 * perPhase, Think: montageThink,
	}
}

func setupMontage(e *env) error {
	mc := montageConfig(e.seconds)
	// Total cache is half the working set, split 1:3:4 over ram, nvme and bb.
	eighth := int64(mc.Images) * montageImage / 2 / 8
	cfg := shippedConfig(e.traced)
	cfg.Tiers = hfetch.DefaultTiers(eighth, 3*eighth, 4*eighth)
	cfg.PFS = modeledPFS()
	c, err := hfetch.NewCluster(cfg)
	if err != nil {
		return err
	}
	e.cluster = c
	// workloads.Montage fixes the access pattern (its own source is seeded
	// with a constant); the run's seed relabels the images, which moves them
	// across event shards, lock stripes and hash-map owners.
	perm := rand.New(rand.NewSource(e.seed)).Perm(mc.Images)
	e.data = dataset{names: make([]string, mc.Images), segs: montageImage / segSize}
	for i := range e.data.names {
		e.data.names[i] = fmt.Sprintf("montage/%d/fits-%d", e.seed, perm[i])
		if err := c.CreateFile(e.data.names[i], montageImage); err != nil {
			return err
		}
	}
	return e.expectAll()
}

func runMontage(e *env) *window {
	mc := montageConfig(e.seconds)
	apps := workloads.Montage(mc)
	index := make(map[string]int, mc.Images)
	for i := 0; i < mc.Images; i++ {
		index[fmt.Sprintf("montage/fits-%d", i)] = i
	}
	client := e.cluster.Node(0).NewClient() // one application: shared hit counters
	phase := &phaseBarrier{}
	loops := make([]func(*recorder, time.Time), mc.Procs)
	for p := range loops {
		loops[p] = func(r *recorder, _ time.Time) {
			buf := make([]byte, segSize)
			// Phases run in order; a process opens a file when its script
			// first touches it and closes all at the end of its phase, as an
			// application of the workflow would.
			for _, app := range apps {
				handles := map[int]*hfetch.File{}
				for _, acc := range app.Procs[p] {
					time.Sleep(acc.Think)
					f := index[acc.File]
					fh := handles[f]
					if fh == nil {
						var err error
						if fh, err = client.Open(e.data.names[f]); err != nil {
							r.add(time.Now(), time.Now(), false)
							continue
						}
						handles[f] = fh
					}
					start := time.Now()
					n, err := fh.ReadAt(buf[:acc.Len], acc.Off)
					ok := err == nil && int64(n) == acc.Len && e.data.checkRead(f, int(acc.Off/segSize), buf[:n])
					r.add(start, time.Now(), ok)
				}
				for _, fh := range handles {
					fh.Close()
				}
				phase.wait(len(loops))
			}
		}
	}
	// The window is as long as the workflow takes; the length given here
	// only places the point at which a process counts as hung.
	w := e.timed(3*e.window(), loops)
	w.hits, w.misses = client.Stats().Hits(), client.Stats().Misses()
	return w
}

// phaseBarrier holds the workflow's processes at the end of a phase until
// all have finished it.
type phaseBarrier struct {
	mu      sync.Mutex
	arrived int
	release chan struct{}
}

func (b *phaseBarrier) wait(n int) {
	b.mu.Lock()
	if b.release == nil {
		b.release = make(chan struct{})
	}
	ch := b.release
	b.arrived++
	if b.arrived == n {
		b.arrived, b.release = 0, nil
		close(ch)
	}
	b.mu.Unlock()
	<-ch
}

// ---- read_write_mix ----

// history is the byte table of read_write_mix: a file's expected bytes at
// every version it has had, newest first. The reader holds no lock against
// the writer, so a read may return a version that was current a moment
// ago: bytes of the newest version are fresh, bytes of an older one are
// stale but whole, and bytes of no version are a failed op. The writer
// publishes a new history after WriteAt returns.
type history [][][2]byte

// readsPerWrite paces the writer by the reader's progress, not by the
// clock: one write cycle per readsPerWrite reads, so the mix of reads and
// invalidations, and with it allocs_per_op and hit_ratio, is the same on a
// fast host and a slow one. A cycle takes some 6 ms here, most of it the 32
// PFS reads of the re-read, and 2048 reads take 20 ms: the writer keeps up
// on a host that favours the reader threefold.
const readsPerWrite = 2048

// pollEvery spaces the writer's polls for the fresh byte. With the sleep's
// own overshoot it is the resolution of a staleness sample (of some
// hundreds of microseconds).
const pollEvery = 25 * time.Microsecond

func runReadWriteMix(e *env) *window {
	node := e.cluster.Node(0)
	fs := e.cluster.FS()
	tabs := make([]atomic.Pointer[history], len(e.data.names))
	for f := range tabs {
		tabs[f].Store(&history{e.data.exp[f]})
	}
	var stale, reads atomic.Int64
	check := func(op readOp, buf []byte) bool {
		reads.Add(1)
		for age, t := range *tabs[op.file].Load() {
			if buf[0] == t[op.seg][0] && buf[len(buf)-1] == t[op.seg][1] {
				if age > 0 {
					stale.Add(1)
				}
				return true
			}
		}
		// The write landed after the history was loaded: ask the PFS itself.
		off := int64(op.seg) * segSize
		first, err1 := fs.ExpectedAt(e.data.names[op.file], off)
		last, err2 := fs.ExpectedAt(e.data.names[op.file], off+segSize-1)
		return err1 == nil && err2 == nil && buf[0] == first && buf[len(buf)-1] == last
	}
	readerClient, readerFiles, err := e.openAll(node)
	if err != nil {
		return failedWindow(err)
	}
	_, writerFiles, err := e.openAll(node)
	if err != nil {
		return failedWindow(err)
	}
	var staleness []int64
	var writes, writerFailed int64
	var writerBusy time.Duration
	writer := func(_ *recorder, deadline time.Time) {
		rng := genRNG(e.seed, 1)
		buf := make([]byte, segSize)
		one := buf[:1]
		cycle := func() {
			f := rng.Intn(len(writerFiles))
			fh := writerFiles[f]
			past := *tabs[f].Load()
			wstart := time.Now()
			if err := fh.WriteAt(0, int64(e.data.segs)*segSize); err != nil {
				writerFailed++
				return
			}
			written := time.Now()
			e.tr.add("File.WriteAt", wstart, written, -1, -1)
			fresh, err := e.expect(f)
			if err != nil {
				writerFailed++
				return
			}
			grown := append(history{fresh}, past...)
			tabs[f].Store(&grown)
			writes++
			// Staleness: WriteAt returned → the first read that sees the new
			// version. A file whose first byte did not change cannot show it.
			telling := fresh[0][0] != past[0][0][0]
			for limit := written.Add(barrierLimit); telling; {
				if n, err := fh.ReadAt(one, 0); err != nil || n != 1 {
					writerFailed++
					break
				}
				now := time.Now()
				if one[0] == fresh[0][0] {
					staleness = append(staleness, int64(now.Sub(written)))
					e.tr.add("stale until fresh", written, now, -1, -1)
					break
				}
				if now.After(limit) {
					writerFailed++
					break
				}
				// A poll is a read, with a read's allocations and access event:
				// polling flat out, their number would follow the host's speed.
				time.Sleep(pollEvery)
			}
			// Re-read the file once, so that it is placed again.
			for s := 0; s < e.data.segs; s++ {
				if n, err := fh.ReadAt(buf, int64(s)*segSize); err != nil || n != segSize {
					writerFailed++
				}
			}
		}
		// Cycle k starts once the reader has done k*readsPerWrite reads; a
		// writer that fell behind runs back to back until it has caught up.
		for due := int64(readsPerWrite); ; due += readsPerWrite {
			for reads.Load() < due && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
			start := time.Now()
			if !start.Before(deadline) {
				return
			}
			cycle()
			writerBusy += time.Since(start)
		}
	}
	w := e.timed(e.window(), []func(*recorder, time.Time){e.warmLoop(0, readerFiles, check), writer})
	w.hits, w.misses = readerClient.Stats().Hits(), readerClient.Stats().Misses()
	w.extraFailed += writerFailed
	if writerFailed > 0 {
		w.note("%d writer-side reads or writes failed or never turned fresh", writerFailed)
	}
	sort.Slice(staleness, func(i, j int) bool { return staleness[i] < staleness[j] })
	w.layer["auditor.staleness_p50_ms"] = float64(percentile(staleness, 0.5)) / 1e6
	w.info["writes"] = float64(writes)
	w.info["writer_busy_share"] = writerBusy.Seconds() / w.makespan.Seconds()
	w.info["stale_reads"] = float64(stale.Load())
	return w
}
