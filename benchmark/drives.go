package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"hfetch/internal/comm"
	"hfetch/internal/core/agent"
	"hfetch/internal/core/auditor"
	"hfetch/internal/core/ioclient"
	"hfetch/internal/core/mover"
	"hfetch/internal/core/placement"
	"hfetch/internal/core/score"
	"hfetch/internal/core/seg"
	"hfetch/internal/core/server"
	"hfetch/internal/devsim"
	"hfetch/internal/dhm"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/tiers"
)

// runDrives times calls into each layer's public functions, after the
// traced window, on the window's cluster and inputs where the layer is
// reachable there and on a private fixture of free devices where it is
// not. It adds the timings to m and returns the workload's latency budget.
// Every drive is one span of the trace.
func runDrives(e *env, wl workload, w *window, opP50US float64, m map[string]float64) []budgetRow {
	rng := genRNG(e.seed, generators) // a stream no generator used
	drive := func(name string, fn func()) { e.tr.timed("drive "+name, fn) }
	srv := e.cluster.Node(e.reader).Server()
	span := 1
	if wl.name == "gateway_range" {
		span = rangeSegs
	}
	const n = 4000 // rounds of a drive that is timed call by call; timeEach cuts slow ones short

	drive("server.read_prefetched", func() {
		buf := make([]byte, segSize)
		m["server.read_prefetched_ns"] = timeEach(n, func(int) {
			op := nextRead(rng, len(e.data.names), e.data.segs, 1)
			srv.ReadPrefetched(seg.ID{File: e.data.names[op.file], Index: int64(op.seg)}, 0, buf)
		})
	})
	drive("server.rangeview", func() {
		dst := make([]byte, rangeSegs*segSize)
		size := int64(e.data.segs) * segSize
		m["server.rangeview_ns"] = timeEach(n, func(int) {
			op := nextRead(rng, len(e.data.names), e.data.segs, rangeSegs)
			v := srv.OpenRangeView(e.data.names[op.file], size, int64(op.seg)*segSize, rangeSegs*segSize)
			defer v.Close()
			for {
				if _, _, err := v.Next(dst); err != nil {
					return
				}
			}
		})
	})
	drive("events.post", func() {
		// Eight watched files spread the events over the shards; 4096 events
		// stay far below the rings' capacity, so no post waits.
		node0 := e.cluster.Node(0).Server()
		files := e.data.names[:min(8, len(e.data.names))]
		for _, f := range files {
			node0.StartEpoch(f, int64(e.data.segs)*segSize)
		}
		m["events.post_ns"] = timeBatched(64, 64, func(i int) {
			node0.PostEvent(events.Event{Op: events.OpRead, File: files[i%len(files)], Offset: int64(i%e.data.segs) * segSize, Length: segSize, Time: time.Now()})
		})
		for _, f := range files {
			node0.EndEpoch(f)
		}
	})
	drive("agent.self", func() {
		// ReadAt against a server that answers at once: what is left is the
		// agent's own bookkeeping.
		ag := agent.New(instantServer{seg.NewSegmenter(segSize)}, e.cluster.FS(), nil)
		f, err := ag.Open(e.data.names[0])
		if err != nil {
			w.note("drive agent.self: %v", err)
			return
		}
		defer f.Close()
		buf := make([]byte, segSize)
		m["agent.self_ns"] = timeBatched(64, 64, func(i int) {
			f.ReadAt(buf, int64(i%e.data.segs)*segSize) //nolint:errcheck // instantServer cannot fail
		})
	})

	free := func(name string) *devsim.Device { return devsim.New(devsim.Profile{Name: name}, 1) }
	drive("tiers", func() {
		st := tiers.NewStore("drive", 64<<20, free("drive"))
		ids := make([]seg.ID, 256)
		payload := make([]byte, segSize)
		for i := range ids {
			ids[i] = seg.ID{File: "drive/tiers", Index: int64(i)}
			if err := st.Put(ids[i], payload); err != nil {
				w.note("drive tiers: %v", err)
				return
			}
		}
		m["tiers.view_ns"] = timeBatched(64, 256, func(i int) {
			if b, ok := st.View(ids[i%len(ids)]); ok {
				b.Release()
			}
		})
		out := make([]*tiers.Buf, 4)
		m["tiers.readvec4_ns"] = timeBatched(64, 64, func(i int) {
			at := i * 4 % len(ids)
			st.ReadVec(ids[at:at+4], out)
			for k, b := range out {
				if b != nil {
					b.Release()
					out[k] = nil
				}
			}
		})
		m["tiers.slab_get_put_ns"] = timeBatched(64, 256, func(int) {
			tiers.SlabPut(tiers.SlabGet(segSize))
		})
		// PutOwned (NewBuf + PutBuf, the mover's way in) alone: the payloads
		// are drawn before the clock starts and the segments deleted after
		// it stops.
		puts := make([]float64, 32)
		payloads := make([][]byte, 64)
		for r := range puts {
			for k := range payloads {
				payloads[k] = tiers.SlabGet(segSize)
			}
			t := time.Now()
			for k, p := range payloads {
				if err := st.PutOwned(seg.ID{File: "drive/put", Index: int64(k)}, p); err != nil {
					tiers.SlabPut(p)
				}
			}
			puts[r] = float64(time.Since(t)) / float64(len(payloads))
			st.DeleteFile("drive/put")
		}
		m["tiers.putbuf_ns"] = median(puts)
	})
	drive("events.take_batch", func() {
		q := events.NewQueue(4096, false)
		dst := make([]events.Event, 2048)
		per := make([]float64, 16)
		for r := range per {
			for i := 0; i < len(dst); i++ {
				q.Post(nextEvent(rng, &e.data, time.Now()))
			}
			t := time.Now()
			got, _ := q.TakeBatch(dst)
			per[r] = float64(time.Since(t)) / float64(got)
		}
		q.Close()
		m["events.take_batch_ns_per_event"] = median(per)
	})

	segr := seg.NewSegmenter(segSize)
	newAuditor := func() *auditor.Auditor {
		stats, maps := server.NewLocalMaps("drive")
		aud := auditor.New(auditor.Config{Node: "drive", Segmenter: segr, Score: score.Params{P: 2, Unit: time.Second}, SeqBoost: 0.5}, stats, maps)
		for _, f := range e.data.names {
			aud.StartEpoch(f, int64(e.data.segs)*segSize)
		}
		return aud
	}
	drive("auditor.handle_batch", func() {
		// The workload's own event stream (generator 0's, from its seed),
		// in 256-event batches, into an auditor with no sink behind it.
		aud := newAuditor()
		stream := genRNG(e.seed, 0)
		batch := make([]events.Event, 256)
		m["auditor.handle_batch_ns_per_event"] = timeEach(32, func(int) {
			for i := range batch {
				op := nextRead(stream, len(e.data.names), e.data.segs, span)
				batch[i] = events.Event{Op: events.OpRead, File: e.data.names[op.file], Offset: int64(op.seg) * segSize, Length: int64(span) * segSize, Time: time.Now()}
			}
			aud.HandleBatch(batch)
		}) / float64(len(batch))
	})
	drive("score.update", func() {
		model := score.NewModel(score.Params{P: 2, Unit: time.Second})
		st := &score.Stats{}
		now := time.Now()
		m["score.update_ns"] = timeBatched(64, 256, func(i int) {
			model.OnAccess(st, now.Add(time.Duration(i)*time.Millisecond))
		})
	})
	drive("dhm", func() {
		hm := dhm.New(dhm.Config{Name: "drive", Self: "drive"}, nil)
		hm.RegisterOp("inc", func(cur any, _ []byte) any {
			n, _ := cur.(int64)
			return n + 1
		})
		keys := make([]string, 1024)
		for i := range keys {
			keys[i] = fmt.Sprintf("drive/dhm-%04d", i)
		}
		m["dhm.apply_ns"] = timeBatched(64, 256, func(i int) {
			hm.Apply(keys[i%len(keys)], "inc", nil) //nolint:errcheck // local map, registered op
		})
		m["dhm.get_ns"] = timeBatched(64, 256, func(i int) {
			hm.Get(keys[i%len(keys)]) //nolint:errcheck // local map
		})
	})
	hier := tiers.NewHierarchy(
		tiers.NewStore("ram", 64<<20, free("ram")),
		tiers.NewStore("nvme", 128<<20, free("nvme")),
		tiers.NewStore("bb", 256<<20, free("bb")))
	drive("placement.pass", func() {
		// One pass over 4096 fresh score updates: ScoreBatch, then the plan
		// and its execution against a mover that moves nothing. One round
		// only: the pass is the slowest drive by far (about a second).
		eng := placement.New(placement.Config{Workers: 4}, hier, noopMover{}, newAuditor())
		ups := make([]auditor.Update, 4096)
		for i := range ups {
			ups[i] = auditor.Update{ID: seg.ID{File: "drive/pass", Index: int64(i)}, Score: rng.Float64(), Size: segSize}
		}
		t := time.Now()
		eng.ScoreBatch(ups)
		e.bar.bounded("Engine.Flush", barrierLimit, eng.Flush)
		m["placement.pass_us_4096"] = float64(time.Since(t)) / 1e3
	})
	drive("mover.submit_drain", func() {
		mv := mover.New(mover.Config{}, hier, noopMover{}, func(mover.Move, error) {})
		mv.Start()
		rounds := make([]float64, 3)
		for r := range rounds {
			moves := make([]mover.Move, 1024)
			for i := range moves {
				moves[i] = mover.Move{ID: seg.ID{File: fmt.Sprintf("drive/move-%d", r), Index: int64(i)}, Size: segSize, From: -1, To: i % 3}
			}
			t := time.Now()
			mv.Submit(moves)
			e.bar.bounded("Mover.Drain", barrierLimit, mv.Drain)
			rounds[r] = float64(time.Since(t)) / 1e3
		}
		e.bar.bounded("Mover.Stop", barrierLimit, mv.Stop)
		m["mover.submit_drain_us_1024"] = median(rounds)
	})
	drive("ioclient.fetch", func() {
		fs := pfs.New(free("pfs"))
		if err := fs.Create("drive/fetch", 64*segSize); err != nil {
			w.note("drive ioclient.fetch: %v", err)
			return
		}
		ioc := ioclient.New(fs, segr)
		dst := hier.Tier(0)
		m["ioclient.fetch_us"] = timeEach(400, func(i int) {
			id := seg.ID{File: "drive/fetch", Index: int64(i % 64)}
			if err := ioc.Fetch(id, segSize, dst); err == nil {
				dst.Delete(id)
			}
		}) / 1e3
	})
	drive("gateway.serve", func() {
		h := e.cluster.Node(0).GatewayHandler()
		m["gateway.serve_us"] = timeEach(n/4, func(int) {
			op := nextRead(rng, len(e.data.names), e.data.segs, rangeSegs)
			off := int64(op.seg) * segSize
			req := httptest.NewRequest(http.MethodGet, "/files/"+e.data.names[op.file], nil)
			req.Header.Set("Range", "bytes="+strconv.FormatInt(off, 10)+"-"+strconv.FormatInt(off+rangeSegs*segSize-1, 10))
			rec := httptest.NewRecorder()
			rec.Body.Grow(rangeSegs * segSize)
			h.ServeHTTP(rec, req)
		}) / 1e3
	})
	drive("comm.roundtrip", func() {
		mux := comm.NewMux()
		mux.Register("bench.echo", func(p []byte) ([]byte, error) { return p, nil })
		payload := make([]byte, segSize)
		echo := func(p comm.Peer, rounds int) float64 {
			defer p.Close()
			return timeEach(rounds, func(int) {
				if resp, err := p.Request("bench.echo", payload); err != nil || len(resp) != len(payload) {
					w.note("drive comm.roundtrip: %d bytes back, err %v", len(resp), err)
				}
			}) / 1e3
		}
		net := comm.NewInprocNetwork(nil)
		net.Join("echo", mux)
		m["comm.inproc_roundtrip_us_64k"] = echo(net.Dial("echo"), 2000)
		m["comm.tcp_roundtrip_us_64k"] = 0
		ln, err := comm.ListenTCP("127.0.0.1:0", mux)
		if err != nil {
			w.note("drive comm.roundtrip: %v", err)
			return
		}
		defer ln.Close()
		peer, err := comm.DialTCP(ln.Addr())
		if err != nil {
			w.note("drive comm.roundtrip: %v", err)
			return
		}
		m["comm.tcp_roundtrip_us_64k"] = echo(peer, 400)
	})

	// Differences of the drives that only mean something on one workload.
	m["gateway.http_overhead_us"] = 0
	m["agent.unattributed_ns"] = 0
	switch wl.name {
	case "warm_read":
		rows := []budgetRow{
			{"agent.self_ns", m["agent.self_ns"] / 1e3},
			{"server.read_prefetched_ns", m["server.read_prefetched_ns"] / 1e3},
			{"events.post_ns", m["events.post_ns"] / 1e3},
		}
		rest := opP50US
		for _, r := range rows {
			rest -= r.US
		}
		m["agent.unattributed_ns"] = rest * 1e3
		return append(rows, budgetRow{"agent.unattributed_ns", rest})
	case "gateway_range":
		m["gateway.http_overhead_us"] = opP50US - m["gateway.serve_us"]
		view := m["server.rangeview_ns"] / 1e3
		return []budgetRow{
			{"server.rangeview_ns", view},
			{"gateway.serve_us - server.rangeview_ns", m["gateway.serve_us"] - view},
			{"gateway.http_overhead_us", m["gateway.http_overhead_us"]},
		}
	case "cross_node_read":
		rt, fetch := m["comm.tcp_roundtrip_us_64k"], m["cluster.fetch_p50_us"]
		return []budgetRow{
			{"comm.tcp_roundtrip_us_64k", rt},
			{"cluster.fetch_p50_us - comm.tcp_roundtrip_us_64k", fetch - rt},
			{"op_p50_us - cluster.fetch_p50_us (unattributed)", opP50US - fetch},
		}
	}
	return nil
}

// instantServer is an agent.ServerAPI that serves every read at once from
// nowhere, so that timing File.ReadAt over it times the agent alone.
type instantServer struct{ segr *seg.Segmenter }

func (instantServer) StartEpoch(string, int64)    {}
func (instantServer) EndEpoch(string)             {}
func (instantServer) PostEvent(events.Event)      {}
func (s instantServer) Segmenter() *seg.Segmenter { return s.segr }
func (instantServer) ReadPrefetched(_ seg.ID, _ int64, p []byte) (int, string, bool) {
	return len(p), "ram", true
}

// noopMover is a placement.Mover and mover.Executor whose moves succeed
// without moving a byte: what is timed over it is the deciding and the
// queueing, not the copying.
type noopMover struct{}

func (noopMover) Fetch(seg.ID, int64, *tiers.Store) error           { return nil }
func (noopMover) Transfer(seg.ID, *tiers.Store, *tiers.Store) error { return nil }
func (noopMover) Evict(seg.ID, *tiers.Store) error                  { return nil }
