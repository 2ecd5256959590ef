// Package baselines re-implements the read-acceleration systems HFetch
// is evaluated against in the paper:
//
//   - None — no prefetching; every read goes to the PFS (the paper's
//     native-storage baseline).
//   - Serial — a single-tier (RAM) prefetcher whose one worker fetches a
//     segment at a time (Fig 4a).
//   - Parallel — the same with N workers overlapping fetches (Fig 4a).
//   - InMemOptimal — per-process private in-memory caches with perfect
//     (own-stream) readahead (Fig 4b).
//   - InMemNaive — one shared in-memory cache all processes compete for,
//     with LRU eviction and uncoordinated readahead (Fig 4b).
//   - AppCentric — per-application pattern-detecting prefetchers sharing
//     one cache: the client-pull model whose pollution/redundancy HFetch
//     removes (Fig 5).
//   - Stacker — an online learn-as-you-go prefetcher modeling Subedi et
//     al. (SC'18): a Markov transition table over segments drives
//     prefetching, built up during the run (Fig 6).
//   - KnowAc — a history-based prefetcher modeling He et al.
//     (Cluster'12): a profiling pass records the exact access sequence,
//     then prefetching follows it perfectly; the profiling cost is
//     charged separately (Fig 6).
//
// All systems serve reads through the System/Handle interface the
// experiment harness drives, and use the same pfs/tiers/devsim
// substrates as HFetch so comparisons measure policy, not plumbing.
package baselines

import (
	"hfetch/internal/telemetry"
)

// Handle is an open file within a System.
type Handle interface {
	ReadAt(p []byte, off int64) (int, error)
	Close() error
}

// System is a read-acceleration system under test.
type System interface {
	// Name identifies the system in result tables.
	Name() string
	// Open opens a file for a process belonging to the named
	// application (systems that don't distinguish applications ignore
	// app).
	Open(app, file string) (Handle, error)
	// Stats aggregates hit/miss statistics across all handles.
	Stats() *telemetry.ReadStats
	// Stop tears the system down.
	Stop()
}
