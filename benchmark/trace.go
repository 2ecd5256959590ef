package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system, recorded from
// the benchmark's own files. Parent is the index of the span that caused
// it (-1 for a root); the spans of one op share Op (-1 outside ops).
type span struct {
	name       string
	start, end int64 // ns after the tracer's origin
	parent, op int
}

// tracer keeps the spans of a traced run in memory until the run ends. Op
// spans live in the generators' recorders (one per sample, so no second
// copy is kept); the tracer itself holds what happens outside ops: set-up,
// bounded barriers and the layer drives. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, int64(start.Sub(t.origin)), int64(end.Sub(t.origin)), parent, op})
	return len(t.spans) - 1
}

// timed records fn as one span.
func (t *tracer) timed(name string, fn func()) {
	start := time.Now()
	fn()
	t.add(name, start, time.Now(), -1, -1)
}

// child records a sub-span of the op the generator is about to add: parent
// is resolved to that op's span when the trace is assembled.
func (r *recorder) child(name string, start, end time.Time) {
	if !r.traced {
		return
	}
	op := r.n
	r.children = append(r.children, span{name, int64(start.Sub(r.open)), int64(end.Sub(r.open)), op, op})
}

// assemble merges the tracer's spans with one span per recorded op (named
// opName) and the ops' sub-spans into one list with list-wide indices.
func (t *tracer) assemble(opName string, open time.Time, recs []*recorder) []span {
	out := append([]span(nil), t.spans...)
	shift := int64(open.Sub(t.origin))
	opBase := 0
	for _, r := range recs {
		first := len(out)
		i := 0
		for _, c := range r.chunks {
			for _, s := range c {
				out = append(out, span{opName, shift + s.end() - int64(s.lat), shift + s.end(), -1, opBase + i})
				i++
			}
		}
		for _, c := range r.children {
			out = append(out, span{c.name, shift + c.start, shift + c.end, first + c.parent, opBase + c.op})
		}
		opBase += i
	}
	return out
}

// selfRow is the per-name summary of a span list: a span's self time is
// its duration minus the part its child spans cover.
type selfRow struct {
	Name          string  `json:"name"`
	Count         int     `json:"count"`
	TotalMS       float64 `json:"total_ms"`
	SelfMS        float64 `json:"self_ms"`
	MedianTotalNS int64   `json:"median_total_ns"`
}

func selfTimes(spans []span) []selfRow {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	type acc struct {
		total, self  int64
		durs         []int64
		firstSeenIdx int
	}
	by := map[string]*acc{}
	for i, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &acc{firstSeenIdx: i}
			by[s.name] = a
		}
		d := s.end - s.start
		a.total += d
		a.self += d - covered[i]
		a.durs = append(a.durs, d)
	}
	rows := make([]selfRow, 0, len(by))
	order := map[string]int{}
	for name, a := range by {
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
		rows = append(rows, selfRow{name, len(a.durs), float64(a.total) / 1e6, float64(a.self) / 1e6, percentile(a.durs, 0.5)})
		order[name] = a.firstSeenIdx
	}
	sort.Slice(rows, func(i, j int) bool { return order[rows[i].Name] < order[rows[j].Name] })
	return rows
}

// writeTrace writes the spans as {"columns", "names", "spans"}: each span
// is a row [name index, start_ns, end_ns, parent, op], which keeps a
// half-million-span file at a few MB.
func writeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names := []string{}
	idx := map[string]int{}
	for _, s := range spans {
		if _, ok := idx[s.name]; !ok {
			idx[s.name] = len(names)
			names = append(names, s.name)
		}
	}
	nj, err := json.Marshal(names)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, `{"workload":%q,"columns":["name","start_ns","end_ns","parent","op"],"names":%s,"spans":[`, workload, nj)
	var b []byte
	for i, s := range spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k, v := range [5]int64{int64(idx[s.name]), s.start, s.end, int64(s.parent), int64(s.op)} {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
		w.Write(b) //nolint:errcheck // bufio keeps the first error for Flush
	}
	w.WriteString("]}\n") //nolint:errcheck // as above
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
