// Package hotfixture exercises the hotpath analyzer. Only annotated
// functions are checked; unannotated twins of each violation prove the
// directive is what arms the rules.
package hotfixture

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strconv"
	"time"
)

type Reg struct{ n int }

func (r *Reg) TimeSample() bool {
	r.n++
	return r.n%8 == 0
}

//hfetch:hotpath
func sprintfInHotPath(file string, seg int64) string {
	return fmt.Sprintf("%s#%d", file, seg) // want `fmt.Sprintf in hot path`
}

//hfetch:hotpath
func gobInHotPath(v any) []byte {
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(v) // want `gob.NewEncoder in hot path`
	return buf.Bytes()
}

//hfetch:hotpath
func errorfInHotPath(file string) error {
	return fmt.Errorf("bad file %s", file) // want `fmt.Errorf in hot path`
}

//hfetch:hotpath
func reflectInHotPath(v any) string {
	return reflect.TypeOf(v).Name() // want `reflect.TypeOf in hot path`
}

//hfetch:hotpath
func ungatedClock() int64 {
	return time.Now().UnixNano() // want `unsampled time.Now in hot path`
}

//hfetch:hotpath
func gatedClockDirect(r *Reg) int64 {
	if r.TimeSample() {
		return time.Now().UnixNano()
	}
	return 0
}

//hfetch:hotpath
func gatedClockViaVar(r *Reg) time.Duration {
	var start time.Time
	timed := r.TimeSample()
	if timed {
		start = time.Now()
	}
	work()
	if timed {
		return time.Since(start)
	}
	return 0
}

//hfetch:hotpath
func mapPerEvent(k string) map[string]int {
	m := make(map[string]int) // want `map allocated per event in hot path`
	m[k] = 1
	return m
}

//hfetch:hotpath
func mapLiteralPerEvent(k string) map[string]int {
	return map[string]int{k: 1} // want `map literal allocated per event in hot path`
}

//hfetch:hotpath
func closurePerEvent(xs []int) int {
	total := 0
	each(xs, func(x int) { total += x }) // want `closure allocated in hot path`
	return total
}

//hfetch:hotpath
func sanctioned(seg int64) string {
	var buf [24]byte
	return string(strconv.AppendInt(buf[:0], seg, 10))
}

//hfetch:hotpath
func payloadAllocPerRead(n int) []byte {
	return make([]byte, n) // want `per-read \[\]byte allocation in hot path`
}

//hfetch:hotpath
func payloadCopy(dst, src []byte) int {
	return copy(dst, src) // want `payload copy\(\) in hot path`
}

//hfetch:hotpath
func scratchAllocConstSize() []byte {
	return make([]byte, 16) // constant-size scratch: exempt
}

//hfetch:hotpath
func arrayScratchCopy(src []byte) uint8 {
	var arg [16]byte
	copy(arg[0:8], src) // array-backed destination: exempt
	return arg[0]
}

//hfetch:hotpath
func stringLabelCopy(dst []byte) int {
	return copy(dst, "label") // string source: not a payload move
}

//hfetch:hotpath
func waivedPayloadCopy(dst, src []byte) int {
	//lint:allow hotpath fixture demonstrates the sanctioned API-boundary copy
	return copy(dst, src)
}

//hfetch:hotpath
func allowedFallback(ts time.Time) time.Time {
	if ts.IsZero() {
		//lint:allow hotpath fixture demonstrates the sanctioned clock fallback
		ts = time.Now()
	}
	return ts
}

// unannotated may do all of it freely.
func unannotated(file string, seg int64, p []byte) string {
	_ = time.Now()
	_ = map[string]int{file: 1}
	buf := make([]byte, len(p))
	copy(buf, p)
	return fmt.Sprintf("%s#%d", file, seg)
}

func work() {}

func each(xs []int, f func(int)) {
	for _, x := range xs {
		f(x)
	}
}
