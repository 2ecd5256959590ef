package baselines

import (
	"hfetch/internal/core/seg"
	"hfetch/internal/devsim"
	"hfetch/internal/pfs"
	"hfetch/internal/telemetry"
)

// KnowAcConfig configures the history-based comparator.
type KnowAcConfig struct {
	// CacheBytes is the prefetching cache capacity.
	CacheBytes int64
	// CacheDevice models the cache medium.
	CacheDevice *devsim.Device
	// SegmentSize is the prefetch grain (default 1 MiB).
	SegmentSize int64
	// Workers is the fetch thread pool size (default 4).
	Workers int
	// Window is how far ahead of consumption the prefetcher may run, in
	// recorded accesses (default 64).
	Window int
}

// KnowAc models KnowAc (He, Sun, Thakur — Cluster'12): I/O prefetching
// via accumulated knowledge. A profiling pass records the exact global
// access sequence; the production run replays that knowledge, streaming
// the recorded segments into the cache just ahead of consumption. Its
// read time is the best of all comparators — the prefetcher knows
// exactly what comes next — but the profiling pass is real end-to-end
// cost the paper charges it for ("profile-cost plus run time").
type KnowAc struct {
	substrate
	cache  *lruCache
	pool   *fetchPool
	replay *replay
}

// NewKnowAc builds the system; call StartProfile/FinishProfile around a
// profiling pass before the measured run.
func NewKnowAc(fs *pfs.FS, cfg KnowAcConfig) *KnowAc {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	r := &replay{window: cfg.Window}
	k := &KnowAc{
		substrate: newSubstrate("knowac", fs, cfg.SegmentSize, r),
		cache:     newLRUCache(cfg.CacheBytes, cfg.CacheDevice),
		replay:    r,
	}
	k.pool = newFetchPool(&k.substrate, cfg.Workers, replayQueue, nil, nil)
	return k
}

// replayQueue is KnowAc's fetch queue length. A replay must not drop a
// recorded segment, but when one process runs ahead of the recorded
// interleaving the cursor jumps, and the rule wants every segment it
// passed at once: at 32 and 64 processes, Figure 6(a)'s bursts overflow
// a 4 096-hint queue. 1<<16 hints (2 MiB) hold every history the
// figures record (14 336 accesses at most).
const replayQueue = 1 << 16

// Stop implements System.
func (k *KnowAc) Stop() { k.pool.stop() }

// StartProfile switches the system into recording mode: reads are served
// from the PFS (no prefetching) and the access sequence is accumulated.
func (k *KnowAc) StartProfile() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.replay.profiling = true
	k.replay.history = k.replay.history[:0]
}

// FinishProfile ends recording, resets statistics, and starts the replay
// for the measured run: the first Window recorded segments are wanted at
// once, before anything is consumed.
func (k *KnowAc) FinishProfile() {
	k.mu.Lock()
	k.wants = k.replay.finish(k.wants[:0])
	for _, w := range k.wants {
		k.pool.want(k.cache, w)
	}
	k.mu.Unlock()
	k.stats = telemetry.NewReadStats()
}

// HistoryLen returns the recorded access count.
func (k *KnowAc) HistoryLen() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.replay.history)
}

// Open implements System.
func (k *KnowAc) Open(app, file string) (Handle, error) {
	return k.open(app, file, k.cache, k.pool)
}

// replay is KnowAc's rule. While profiling it records every access in
// order. After finish, each access moves a consumption cursor to its
// first occurrence in the record past the cursor, and the rule wants
// every recorded segment up to window past the cursor, each position
// once, in recorded order.
type replay struct {
	window    int
	profiling bool
	history   []seg.ID
	pos       map[seg.ID][]int // id -> positions in history
	consumed  int              // highest matched history position
	issued    int              // positions below this have been wanted
}

func (r *replay) next(dst []seg.ID, _ string, id seg.ID, _ int64) []seg.ID {
	if r.profiling {
		r.history = append(r.history, id)
		return dst
	}
	for _, p := range r.pos[id] {
		if p > r.consumed {
			r.consumed = p
			break
		}
	}
	return r.due(dst)
}

// finish ends recording, indexes the history and appends the opening
// window.
func (r *replay) finish(dst []seg.ID) []seg.ID {
	r.profiling = false
	r.pos = make(map[seg.ID][]int, len(r.history))
	for i, id := range r.history {
		r.pos[id] = append(r.pos[id], i)
	}
	r.consumed, r.issued = -1, 0
	return r.due(dst)
}

// due appends the recorded segments not yet wanted that lie within
// window of the cursor.
func (r *replay) due(dst []seg.ID) []seg.ID {
	for end := min(r.consumed+r.window+1, len(r.history)); r.issued < end; r.issued++ {
		dst = append(dst, r.history[r.issued])
	}
	return dst
}
