package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"hfetch/internal/invariant"
	"hfetch/internal/telemetry"
)

// headerWriter is a ResponseWriter that keeps the status and counts the
// body. Its header map is cleared, not remade, between requests, so what
// a request costs is the gateway's alone: net/http makes the map.
type headerWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) WriteHeader(code int)        { w.code = code }
func (w *headerWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestGatewayGetAllocs: a ranged GET of resident segments, from routing
// to the last body byte, allocates once — the header values — whether
// telemetry is off or on with lifecycle tracing and every request timed.
func TestGatewayGetAllocs(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("allocation counts are for the production build")
	}
	traced := telemetry.NewRegistry()
	traced.EnableLifecycle(0)
	traced.SetTimeSampling(1)
	for _, tc := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"no registry", nil},
		{"lifecycle", traced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, srv, fs := newTestNodeWith(t, Config{}, tc.reg)
			const size = 64 * testSeg
			if err := fs.Create("data/x", size); err != nil {
				t.Fatal(err)
			}
			w := &headerWriter{h: http.Header{}}
			req := httptest.NewRequest("GET", "/files/data/x", nil)
			g.ServeHTTP(w, req)
			srv.Flush()
			req.Header.Set("Range", "bytes=4096-20479")
			get := func() {
				clear(w.h)
				w.n = 0
				g.ServeHTTP(w, req)
			}
			hits := srv.IOStats().Hits()
			get()
			if w.code != http.StatusPartialContent || w.n != 4*testSeg {
				t.Fatalf("warm ranged GET: status %d, %d bytes; want 206, %d", w.code, w.n, 4*testSeg)
			}
			if got := srv.IOStats().Hits() - hits; got != 4 {
				t.Fatalf("warm ranged GET hit %d of its 4 segments", got)
			}
			if n := testing.AllocsPerRun(200, get); n > 1 {
				t.Fatalf("a warm ranged GET allocates %.1f times, want 1 (the header values)", n)
			}
			if got := w.h.Get("Content-Range"); got != "bytes 4096-20479/262144" {
				t.Fatalf("Content-Range = %q", got)
			}
		})
	}
}
