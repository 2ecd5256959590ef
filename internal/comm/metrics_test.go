package comm

import (
	"strings"
	"testing"
	"time"

	"hfetch/internal/telemetry"
)

// snapValue sums a family's values across label sets.
func snapValue(s telemetry.Snapshot, name string) (total int64, found bool) {
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		found = true
		if m.Hist != nil {
			total += m.Hist.Count
		} else {
			total += m.Value
		}
	}
	return total, found
}

func TestStatsNilSafe(t *testing.T) {
	var st *Stats
	if got := NewStats(nil); got != nil {
		t.Fatalf("NewStats(nil) = %v, want nil", got)
	}
	st.ObserveDial("p", time.Millisecond)
	st.ObserveRequest("p", time.Millisecond, nil)
	st.ObserveRequest("p", time.Millisecond, ErrTimeout)
	st.DialRetry()
	st.AddBytesIn(7)
	st.AddBytesOut(7)
	p := &inprocTestPeer{}
	if got := InstrumentPeer(p, "p", nil); got != Peer(p) {
		t.Fatal("InstrumentPeer with nil stats must return the peer unchanged")
	}
}

type inprocTestPeer struct{ Peer }

func TestTCPStatsCountTraffic(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStats(reg)

	srv, err := ListenTCP("127.0.0.1:0", echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetStats(st)

	p, err := DialTCPOpts(srv.Addr(), PeerOptions{Stats: st, PeerName: "node1"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Request("echo", []byte("count me")); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"hfetch_comm_dial_nanos",
		"hfetch_comm_request_nanos",
		"hfetch_comm_bytes_in_total",
		"hfetch_comm_bytes_out_total",
	} {
		v, ok := snapValue(snap, name)
		if !ok {
			t.Fatalf("family %s not registered", name)
		}
		if v <= 0 {
			t.Fatalf("%s = %d after a request, want > 0", name, v)
		}
	}
	// The per-peer label came from PeerName, not the raw address.
	var labeled bool
	for _, m := range snap.Metrics {
		if m.Name == "hfetch_comm_request_nanos" && strings.Contains(m.Labels, `peer="node1"`) {
			labeled = true
		}
	}
	if !labeled {
		t.Fatal(`request histogram missing peer="node1" label`)
	}
}

func TestStatsRequestTimeoutCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStats(reg)
	m := NewMux()
	m.Register("slow", func(p []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return p, nil
	})
	srv, err := ListenTCP("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialTCPOpts(srv.Addr(), PeerOptions{
		Stats:          st,
		RequestTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Request("slow", nil); err == nil {
		t.Fatal("want timeout error")
	}
	if v, _ := snapValue(reg.Snapshot(), "hfetch_comm_timeouts_total"); v != 1 {
		t.Fatalf("hfetch_comm_timeouts_total = %d, want 1", v)
	}
}
