package lockorder

import (
	"fmt"
	"strings"
)

// FieldSel names one mutex field: the owning named type (as
// framework.TypeKey renders it, "pkgpath.Type") and the field name.
type FieldSel struct {
	Type  string
	Field string
}

// Class is one rank in the lock-ordering chain. Several concrete fields
// may share a class (none do today, but fixtures use it).
type Class struct {
	// Name matches the phrase used in ARCHITECTURE.md's chain.
	Name   string
	Fields []FieldSel
	// ReleasedBefore marks the strictly released-between prefix of the
	// chain: this lock must be released before acquiring ANY later
	// lock, not merely acquired in order.
	ReleasedBefore bool
}

// Manifest is the machine-readable form of ARCHITECTURE.md's
// "Lock ordering" section. TestManifestMatchesArchitecture asserts that
// Default() and the prose stay in sync.
type Manifest struct {
	// Classes in ascending rank (outermost first).
	Classes []Class
	// BarrierPkgs: any call into these packages is device I/O; no
	// manifest lock may be held across it.
	BarrierPkgs []string
	// BarrierFuncs: individual callbacks/interface methods that are
	// I/O or must run lock-free, as "pkgpath.Type.Name".
	BarrierFuncs []string
}

// Default returns the manifest for this repo's chain:
//
//	gateway mu → (released) → ring → (released) → epoch → (released) →
//	membership mu → (released) → dhm → (released) → cluster fetch mu →
//	(released) → engine runMu → engine mu → mover mu → tier store mutex
//
// Two mutexes sit next to the dhm shard without being ranks of the chain.
// The WAL's is never nested under a shard: a record is encoded under the
// shard lock (dhm.encodePut takes no lock) and written after it. The
// learner's (score.Learned.mu) is a leaf taken under the shard lock by
// the auditor's access op, and takes nothing.
func Default() Manifest {
	return Manifest{
		Classes: []Class{
			{Name: "gateway", ReleasedBefore: true,
				Fields: []FieldSel{{"hfetch/internal/gateway.Gateway", "mu"}}},
			{Name: "ring", ReleasedBefore: true,
				Fields: []FieldSel{{"hfetch/internal/events.Queue", "mu"}}},
			{Name: "epoch", ReleasedBefore: true,
				Fields: []FieldSel{{"hfetch/internal/core/auditor.epochStripe", "mu"}}},
			{Name: "membership", ReleasedBefore: true,
				Fields: []FieldSel{{"hfetch/internal/cluster.Membership", "mu"}}},
			{Name: "dhm", ReleasedBefore: true,
				Fields: []FieldSel{{"hfetch/internal/dhm.shard", "mu"}}},
			{Name: "cluster-fetch", ReleasedBefore: true,
				Fields: []FieldSel{{"hfetch/internal/cluster.Fetcher", "mu"}}},
			{Name: "engine-run",
				Fields: []FieldSel{{"hfetch/internal/core/placement.Engine", "runMu"}}},
			{Name: "engine-mu",
				Fields: []FieldSel{{"hfetch/internal/core/placement.Engine", "mu"}}},
			{Name: "mover",
				Fields: []FieldSel{{"hfetch/internal/core/mover.Mover", "mu"}}},
			{Name: "store",
				Fields: []FieldSel{{"hfetch/internal/tiers.Store", "mu"}}},
		},
		BarrierPkgs: []string{"hfetch/internal/core/ioclient"},
		BarrierFuncs: []string{
			// The mover's completion callback must run lock-free.
			"hfetch/internal/core/mover.Mover.done",
			// The movement interface is implemented by ioclient.
			"hfetch/internal/core/mover.Executor.Fetch",
			"hfetch/internal/core/mover.Executor.Transfer",
			"hfetch/internal/core/mover.Executor.Evict",
			// FetchMany runs its fetched/landed callbacks inside the call,
			// on the caller's goroutine: lock-free across the call means
			// lock-free in them (landed completes an op under the mover mu).
			"hfetch/internal/core/mover.BatchFetcher.FetchMany",
			// A move's two halves are device I/O like the whole.
			"hfetch/internal/core/mover.Carrier.Take",
			"hfetch/internal/core/mover.Carrier.Land",
			// A store wakes the fills at its door after dropping its own
			// mutex: the waiter (the mover) takes its mu inside the call.
			"hfetch/internal/tiers.RoomWaiter.RoomMade",
		},
	}
}

// ChainEntry is one parsed element of the ARCHITECTURE.md chain line.
type ChainEntry struct {
	Class          string
	ReleasedBefore bool
}

// chainPhrases maps the prose phrase in the chain to a class name.
var chainPhrases = map[string]string{
	"gateway mu":       "gateway",
	"ring mutex":       "ring",
	"epoch stripe":     "epoch",
	"membership mu":    "membership",
	"dhm shard":        "dhm",
	"cluster fetch mu": "cluster-fetch",
	"engine runMu":     "engine-run",
	"engine mu":        "engine-mu",
	"mover mu":         "mover",
	"tier store mutex": "store",
}

// ParseArchitectureChain extracts the lock chain from ARCHITECTURE.md:
// the first "→"-joined line inside the "## Lock ordering" section.
// "(released)" separators set ReleasedBefore on the preceding entry.
func ParseArchitectureChain(md []byte) ([]ChainEntry, error) {
	lines := strings.Split(string(md), "\n")
	inSection := false
	for _, line := range lines {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, "## Lock ordering")
			continue
		}
		if !inSection || !strings.Contains(line, "→") {
			continue
		}
		var out []ChainEntry
		for _, part := range strings.Split(line, "→") {
			part = strings.TrimSpace(part)
			if part == "(released)" {
				if len(out) == 0 {
					return nil, fmt.Errorf("chain starts with (released)")
				}
				out[len(out)-1].ReleasedBefore = true
				continue
			}
			name, ok := chainPhrases[part]
			if !ok {
				return nil, fmt.Errorf("unknown lock phrase %q in chain", part)
			}
			out = append(out, ChainEntry{Class: name})
		}
		return out, nil
	}
	return nil, fmt.Errorf("no lock chain found under '## Lock ordering'")
}
