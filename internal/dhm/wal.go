package dhm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// WAL is a write-ahead log giving a Map fault tolerance across
// power-downs: every local mutation is appended as a length-framed gob
// record; Replay reconstructs the last state of each key.
//
// One WAL can serve several named maps (records carry the map name).
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// walRecord is the form a mutation takes at rest. A record with Typed
// set carries Key{File: Key, Index: Index}. One without it was written
// before keys were typed (wire version 1) and carries the key as text;
// gob leaves the fields it does not know zero, so such logs still
// decode and legacyKey recovers their keys.
type walRecord struct {
	Map    string
	Key    string
	Delete bool
	Val    []byte
	Typed  bool
	Index  int64
}

// legacyKey inverts the text keys of a version 1 log: the auditor wrote
// a segment's statistics under "s|file|idx" and its mapping under
// "m|file|idx"; anything else was a plain string key.
func legacyKey(s string) Key {
	if strings.HasPrefix(s, "s|") || strings.HasPrefix(s, "m|") {
		rest := s[2:]
		if cut := strings.LastIndexByte(rest, '|'); cut >= 0 {
			if idx, err := strconv.ParseInt(rest[cut+1:], 10, 64); err == nil && idx >= 0 {
				return Key{File: rest[:cut], Index: idx}
			}
		}
	}
	return StringKey(s)
}

// OpenWAL opens (or creates) the log at path, appending to any existing
// records.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dhm: open wal: %w", err)
	}
	return &WAL{f: f, path: path}, nil
}

// Path returns the log file path.
func (w *WAL) Path() string { return w.path }

// Close flushes and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// frame returns rec as it rests in the log: length u32 | gob body.
func frame(rec walRecord) []byte {
	body := bytes.NewBuffer(make([]byte, 4, 256))
	if err := gob.NewEncoder(body).Encode(rec); err != nil {
		return nil // values that cannot gob-encode are simply not durable
	}
	binary.BigEndian.PutUint32(body.Bytes(), uint32(body.Len()-4))
	return body.Bytes()
}

// write appends one framed record; nil (nothing to make durable) is a
// no-op.
func (w *WAL) write(framed []byte) {
	if framed == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return
	}
	w.f.Write(framed) //nolint:errcheck // best-effort durability
}

// The log stores values at rest as self-describing gob: a replay has no
// live codec registry to trust, and gob keeps old logs readable.
func encodeVal(v any) ([]byte, error) {
	var buf bytes.Buffer
	// Wrap in an interface holder so gob records the concrete type.
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("dhm: encode value: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeVal(b []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("dhm: decode value: %w", err)
	}
	return v, nil
}

// encodePut frames the record of a put. It takes no lock of the log's:
// a map calls it under the shard lock, where val cannot change, and
// writes the bytes once the lock is released.
func encodePut(mapName string, k Key, val any) []byte {
	vb, err := encodeVal(val)
	if err != nil {
		return nil
	}
	return frame(walRecord{Map: mapName, Key: k.File, Typed: true, Index: k.Index, Val: vb})
}

func (w *WAL) logDelete(mapName string, k Key) {
	w.write(frame(walRecord{Map: mapName, Key: k.File, Typed: true, Index: k.Index, Delete: true}))
}

// Sync fsyncs the log.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// Replay reads the log at path and returns the surviving state per map
// name: map[mapName]map[key]value. A truncated trailing record (torn
// write at power-down) is tolerated and ignored.
func Replay(path string) (map[string]map[Key]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dhm: open wal for replay: %w", err)
	}
	defer f.Close()
	out := make(map[string]map[Key]any)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			break // EOF or torn header
		}
		n := binary.BigEndian.Uint32(hdr[:])
		// A corrupt header can claim a multi-gigabyte record; no
		// legitimate record approaches this bound, so treat it as
		// corruption instead of attempting the allocation.
		const maxRecord = 64 << 20
		if n > maxRecord {
			break
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			break // torn body
		}
		var rec walRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			break // corrupt record terminates replay
		}
		mp := out[rec.Map]
		if mp == nil {
			mp = make(map[Key]any)
			out[rec.Map] = mp
		}
		k := Key{File: rec.Key, Index: rec.Index}
		if !rec.Typed {
			k = legacyKey(rec.Key)
		}
		if rec.Delete {
			delete(mp, k)
			continue
		}
		v, err := decodeVal(rec.Val)
		if err != nil {
			continue
		}
		mp[k] = v
	}
	return out, nil
}

// Restore loads replayed state for this map's name into the local shards
// (without re-logging).
func (m *Map) Restore(state map[string]map[Key]any) {
	for k, v := range state[m.cfg.Name] {
		m.localPut(m.shardAt(k.hash()), k, v, false)
	}
}
