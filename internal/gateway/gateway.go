// Package gateway is the HTTP/1.1 range-read serving surface in front of
// an HFetch node: GET/HEAD /files/{path} with Range and If-Range
// semantics, streaming responses served straight from the tier hierarchy
// (falling back to PFS passthrough when tiers are cold), and per-tenant
// token-bucket admission with a bounded wait. Every served request posts
// one read event into the node's event pipeline, so the auditor detects
// an HTTP client's sequential stream and prefetches ahead of it as it
// does for an agent reader: the paper's sequencing signal arriving over
// the wire instead of through the client agent.
package gateway

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfetch/internal/core/server"
	"hfetch/internal/events"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// Config tunes the gateway. The zero value of every field selects a
// sensible default; see the field comments for what zero means.
type Config struct {
	// MaxInflight caps concurrently served requests across all clients
	// (default 256). Excess requests are shed with 429.
	MaxInflight int
	// ClientInflight caps concurrently served requests per client IP
	// (default 64).
	ClientInflight int
	// TenantRPS is the per-tenant token-bucket refill rate in requests
	// per second; 0 disables tenant rate limiting.
	TenantRPS float64
	// TenantBurst is the bucket depth (default 2×TenantRPS, minimum 1).
	TenantBurst float64
	// AdmitWait bounds how long an over-rate request may wait for a
	// token before being shed with 429 + Retry-After (default 10ms).
	AdmitWait time.Duration
	// ChunkBytes is the streaming copy granularity (default 256 KiB).
	// Each chunk re-checks the file generation so a response never
	// mixes bytes of two generations.
	ChunkBytes int
	// Telemetry receives the gateway metric families; nil disables
	// instrumentation.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, emits one debug-level line per finished
	// request (tenant, client, range, status, TTFB, and the segment's
	// lifecycle trace ID when sampled). Nil disables request logging.
	Logger *slog.Logger
	// LogMaxPerSec caps emitted request lines per second so debug logging
	// on a hot gateway cannot drown the node (default 100; excess
	// requests are served unlogged).
	LogMaxPerSec int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.ClientInflight <= 0 {
		c.ClientInflight = 64
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 2 * c.TenantRPS
	}
	if c.TenantBurst < 1 {
		c.TenantBurst = 1
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = 10 * time.Millisecond
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 256 << 10
	}
	if c.LogMaxPerSec <= 0 {
		c.LogMaxPerSec = 100
	}
	return c
}

// Gateway serves the range-read API over one node's server. Create with
// New, mount as an http.Handler, and Close when done: the gateway holds
// one epoch reference per file it has served (it is a long-lived reader
// in the watch table's eyes: the auditor's epochs), released on Close.
type Gateway struct {
	srv *server.Server
	fs  *pfs.FS
	cfg Config

	qos *qos

	// mu guards the epoch table and the closed flag. It is the
	// outermost lock of the node (see ARCHITECTURE.md "Lock ordering")
	// and must be released before calling into the server.
	mu     sync.Mutex
	closed bool
	epochs map[string]int64 // file -> size pinned at first serve

	// completed counts finished requests (any status, including aborts):
	// the progress signal the stall watchdog pairs with the inflight
	// gauge.
	completed atomic.Int64

	log    *slog.Logger
	logLim logLimiter

	reqVec *telemetry.CounterVec
	// codeCtr holds reqVec's counters for the statuses the gateway
	// itself emits, resolved once: no status string per request.
	codeCtr    map[int]*telemetry.Counter
	tenantVec  *telemetry.CounterVec
	bytesCtr   *telemetry.Counter
	ttfbHist   *telemetry.Histogram
	fullHist   *telemetry.Histogram
	shedVec    *telemetry.CounterVec
	degradeCtr *telemetry.Counter
	abortCtr   *telemetry.Counter
}

// New builds a gateway over srv. The server must outlive the gateway.
func New(srv *server.Server, cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		srv:    srv,
		fs:     srv.FS(),
		cfg:    cfg,
		qos:    newQOS(cfg),
		epochs: make(map[string]int64),
	}
	g.log = cfg.Logger
	g.logLim.max = cfg.LogMaxPerSec
	if reg := cfg.Telemetry; reg != nil {
		g.reqVec = reg.CounterVec("hfetch_gateway_requests_total", "gateway requests by HTTP status code", "code")
		g.codeCtr = make(map[int]*telemetry.Counter)
		for _, code := range []int{
			http.StatusOK, http.StatusPartialContent, http.StatusNotModified,
			http.StatusNotFound, http.StatusRequestedRangeNotSatisfiable,
			http.StatusTooManyRequests, http.StatusServiceUnavailable,
		} {
			g.codeCtr[code] = g.reqVec.With(strconv.Itoa(code))
		}
		g.tenantVec = reg.CounterVec("hfetch_gateway_tenant_requests_total", "gateway requests admitted per tenant", "tenant")
		g.bytesCtr = reg.Counter("hfetch_gateway_bytes_total", "response body bytes served by the gateway")
		g.ttfbHist = reg.Histogram("hfetch_gateway_ttfb_nanos", "request start to first body byte in nanoseconds")
		g.fullHist = reg.Histogram("hfetch_gateway_request_nanos", "request start to last body byte in nanoseconds")
		g.shedVec = reg.CounterVec("hfetch_gateway_shed_total", "requests shed by QoS admission, by reason", "reason")
		g.degradeCtr = reg.Counter("hfetch_gateway_degraded_total", "responses served entirely from the PFS (no tier hit)")
		g.abortCtr = reg.Counter("hfetch_gateway_aborted_total", "responses aborted mid-stream by a generation change")
		reg.GaugeFunc("hfetch_gateway_inflight", "gateway requests currently being served", g.qos.inflightNow)
	}
	return g
}

// FilesPrefix is the gateway's one route: GET and HEAD of
// FilesPrefix + the file's path.
const FilesPrefix = "/files/"

// ServeHTTP implements http.Handler. With one route the gateway routes
// the request itself: a ServeMux's wildcard match builds a slice of path
// values per request. It answers as a ServeMux with the patterns
// "GET /files/{path...}" and "HEAD /files/{path...}" would: 404 outside
// the prefix (a ServeMux would redirect /files itself to /files/), a
// redirect to the clean form of a path that is not clean, and 405 with
// Allow for any other method.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Path
	file, ok := strings.CutPrefix(p, FilesPrefix)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if clean := cleanPath(p); clean != p {
		u := url.URL{Path: clean, RawQuery: r.URL.RawQuery}
		http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	g.serve(w, r, file)
}

// cleanPath is path.Clean that keeps a trailing slash, as a ServeMux
// cleans a request path; it allocates only to put a slash back.
func cleanPath(p string) string {
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		if len(p) == len(np)+1 && strings.HasPrefix(p, np) {
			return p
		}
		np += "/"
	}
	return np
}

// Close releases every epoch reference the gateway holds. The gateway
// sheds all subsequent requests with 503.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	files := make([]string, 0, len(g.epochs))
	for f := range g.epochs {
		files = append(files, f)
	}
	g.mu.Unlock()
	for _, f := range files {
		g.srv.EndEpoch(f)
	}
}

// trackEpoch records the file in the epoch table. started is true when
// this call added it (the caller must then StartEpoch outside gw.mu);
// ok is false when the gateway is closed.
func (g *Gateway) trackEpoch(file string, size int64) (started, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false, false
	}
	if _, exists := g.epochs[file]; exists {
		return false, true
	}
	g.epochs[file] = size
	return true, true
}

// clientOf extracts the client identity (IP without port) used for
// per-client caps.
func clientOf(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// tenantOf maps a request to its tenant: the X-Tenant header, or
// "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// countCode counts one response by status. Without telemetry it returns
// before a status outside codeCtr is formatted.
func (g *Gateway) countCode(code int) {
	if g.reqVec == nil {
		return
	}
	if c := g.codeCtr[code]; c != nil {
		c.Inc()
		return
	}
	g.reqVec.With(strconv.Itoa(code)).Inc()
}

// serve wraps handleFile with completion accounting and, when a logger
// is configured, per-request debug logging. The abort panic
// (http.ErrAbortHandler) is logged and re-raised so net/http still cuts
// the connection.
func (g *Gateway) serve(w http.ResponseWriter, r *http.Request, path string) {
	defer g.completed.Add(1)
	if g.log == nil {
		g.handleFile(w, r, path)
		return
	}
	lw := &logWriter{ResponseWriter: w, start: time.Now(), status: http.StatusOK}
	defer func() {
		if p := recover(); p != nil {
			lw.aborted = true
			g.logRequest(lw, r, path)
			panic(p)
		}
		g.logRequest(lw, r, path)
	}()
	g.handleFile(lw, r, path)
}

func (g *Gateway) logRequest(lw *logWriter, r *http.Request, path string) {
	if !g.logLim.allow(time.Now()) {
		return
	}
	attrs := []any{
		"method", r.Method,
		"path", path,
		"tenant", tenantOf(r),
		"client", clientOf(r),
		"status", lw.status,
		"range_off", lw.off,
		"range_len", lw.ln,
		"bytes", lw.n,
		"dur", time.Since(lw.start),
	}
	if lw.ttfb > 0 {
		attrs = append(attrs, "ttfb", lw.ttfb)
	}
	if lw.aborted {
		attrs = append(attrs, "aborted", true)
	}
	if lc := g.srv.Telemetry().Lifecycle(); lc != nil && lw.path != "" {
		if tid := lc.Current(lw.path, g.srv.Segmenter().IndexOf(lw.off)); tid != 0 {
			attrs = append(attrs, "trace_id", tid)
		}
	}
	g.log.Debug("gateway request", attrs...)
}

// logWriter records the response facts the request log line needs;
// handleFile fills path and range via noteRange once they are parsed.
type logWriter struct {
	http.ResponseWriter
	start   time.Time
	status  int
	ttfb    time.Duration
	n       int64
	path    string
	off, ln int64
	aborted bool
}

func (lw *logWriter) WriteHeader(code int) {
	lw.status = code
	lw.ResponseWriter.WriteHeader(code)
}

func (lw *logWriter) Write(p []byte) (int, error) {
	if lw.ttfb == 0 {
		lw.ttfb = time.Since(lw.start)
	}
	n, err := lw.ResponseWriter.Write(p)
	lw.n += int64(n)
	return n, err
}

// logLimiter is a one-second fixed window over emitted lines: cheap, and
// off the request path entirely when logging is disabled.
type logLimiter struct {
	mu     sync.Mutex
	window time.Time
	count  int
	max    int
}

func (l *logLimiter) allow(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if now.Sub(l.window) >= time.Second {
		l.window = now
		l.count = 0
	}
	l.count++
	return l.count <= l.max
}

func (g *Gateway) handleFile(w http.ResponseWriter, r *http.Request, path string) {
	start := time.Now()
	tenant, client := tenantOf(r), clientOf(r)

	adm := g.qos.admit(tenant, client)
	if !adm.ok {
		g.shedVec.With(adm.reason).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(adm.retryAfter))
		g.countCode(http.StatusTooManyRequests)
		http.Error(w, "over capacity: "+adm.reason, http.StatusTooManyRequests)
		return
	}
	defer g.qos.release(tenant, client)
	if adm.wait > 0 {
		time.Sleep(adm.wait)
	}
	g.tenantVec.With(tenant).Inc()

	fi, err := g.fs.Stat(path)
	if err != nil {
		g.countCode(http.StatusNotFound)
		http.Error(w, "no such file", http.StatusNotFound)
		return
	}

	started, open := g.trackEpoch(path, fi.Size)
	if !open {
		g.countCode(http.StatusServiceUnavailable)
		http.Error(w, "gateway closed", http.StatusServiceUnavailable)
		return
	}
	if started {
		g.srv.StartEpoch(path, fi.Size)
	}

	hv := newHeaderValues()
	etag := hv.etag(fi.Version)
	h := w.Header()
	hv.put(h, "Accept-Ranges", "bytes")
	hv.put(h, "Etag", etag)
	hv.put(h, "Content-Type", "application/octet-stream")

	// Conditional GET (RFC 9110 §13.1.2): a client revalidating a cached
	// copy whose entity tag still matches the current generation gets 304
	// and no body is read at all — the cheapest read is no read. No
	// access event is posted either: nothing was accessed, so the
	// prefetching pipeline should not warm tiers for it.
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		g.countCode(http.StatusNotModified)
		w.WriteHeader(http.StatusNotModified)
		g.ttfbHist.Observe(int64(time.Since(start)))
		g.fullHist.Observe(int64(time.Since(start)))
		return
	}

	rangeHdr := r.Header.Get("Range")
	// If-Range: serve the requested range only when the validator still
	// matches; otherwise fall back to the full representation (RFC 9110
	// §13.1.5), which is exactly what a resumed download needs after the
	// file changed under it.
	if ir := r.Header.Get("If-Range"); ir != "" && ir != etag {
		rangeHdr = ""
	}

	br, mode := parseRange(rangeHdr, fi.Size)
	if mode == rangeUnsatisfiable {
		h.Set("Content-Range", "bytes */"+strconv.FormatInt(fi.Size, 10))
		g.countCode(http.StatusRequestedRangeNotSatisfiable)
		http.Error(w, "unsatisfiable range", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	status := http.StatusOK
	if mode == rangePartial {
		status = http.StatusPartialContent
		hv.put(h, "Content-Range", hv.contentRange(br, fi.Size))
	}
	hv.put(h, "Content-Length", hv.decimal(br.length))
	if lw, ok := w.(*logWriter); ok {
		lw.path, lw.off, lw.ln = path, br.start, br.length
	}

	// Every request is an access event: the gateway is just another
	// reader as far as the prefetching pipeline is concerned, and the
	// auditor's stream table detects its sequential clients.
	g.srv.PostEvent(events.Event{
		Op: events.OpRead, File: path, Offset: br.start, Length: br.length,
		Time: start,
	})

	g.countCode(status)
	w.WriteHeader(status)
	if r.Method == http.MethodHead || br.length == 0 {
		g.ttfbHist.Observe(int64(time.Since(start)))
		g.fullHist.Observe(int64(time.Since(start)))
		return
	}
	g.stream(w, path, fi, br, start)
}

// InflightNow reports requests currently being served (the watchdog's
// pending signal; also exported as hfetch_gateway_inflight).
func (g *Gateway) InflightNow() int64 { return g.qos.inflightNow() }

// Completed reports finished requests, any status including aborts (the
// watchdog's progress signal).
func (g *Gateway) Completed() int64 { return g.completed.Load() }

// stream writes [br.start, br.start+br.length) of path to w in chunks
// of at most ChunkBytes, served from one pinned RangeView: the range's
// resident segments are resolved and pinned up front (one lock
// acquisition per tier) and tier hits go to the socket straight from the
// pinned tier buffers — zero payload copies — while misses fill a
// slab-drawn chunk buffer via the prefetched-read/PFS path. The file
// generation is pinned at fi.Version: before sending each chunk the
// generation is re-checked, and on drift the response is aborted (the
// connection is cut so the client sees an incomplete transfer rather
// than bytes of two generations spliced together — PFS contents are a
// pure function of the generation, so a torn response is otherwise
// undetectable).
func (g *Gateway) stream(w http.ResponseWriter, path string, fi pfs.FileInfo, br byteRange, start time.Time) {
	// The fallback chunk buffer comes from the slab even on the
	// PFS-degraded path: no per-request make. Both defers also run on
	// the abort panic, so pins and the chunk buffer are never leaked.
	buf := tiers.SlabGet(int64(g.cfg.ChunkBytes))
	defer tiers.SlabPut(buf)
	v := g.srv.OpenRangeView(path, fi.Size, br.start, br.length)
	defer v.Close()

	first := true
	var sent int64
	for sent < br.length {
		chunk, _, err := v.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil || len(chunk) == 0 {
			g.abort()
		}
		if cur, serr := g.fs.Stat(path); serr != nil || cur.Version != fi.Version {
			g.abort()
		}
		if first {
			g.ttfbHist.Observe(int64(time.Since(start)))
			first = false
		}
		if _, werr := w.Write(chunk); werr != nil {
			// Client went away; nothing more to account.
			return
		}
		sent += int64(len(chunk))
		g.bytesCtr.Add(int64(len(chunk)))
	}
	if sent < br.length {
		// The range ended early (truncated under us): never tear.
		g.abort()
	}
	if v.Hits() == 0 && v.Misses() > 0 {
		g.degradeCtr.Inc()
	}
	g.fullHist.Observe(int64(time.Since(start)))
}

// etagMatches reports whether the If-None-Match header value matches
// etag: "*" matches any current representation, otherwise the
// comma-separated list is compared entry by entry. Weak comparison
// (RFC 9110 §8.8.3.2): a W/ prefix on either side is ignored, which is
// correct for If-None-Match's cache-revalidation use.
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// abort cuts the connection without completing the response.
// http.ErrAbortHandler makes net/http drop the connection quietly, which
// a client observes as an unexpected EOF before Content-Length bytes —
// the unambiguous "retry me" signal.
func (g *Gateway) abort() {
	g.abortCtr.Inc()
	panic(http.ErrAbortHandler)
}
