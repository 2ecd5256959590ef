package tiers

import (
	"sync"
	"testing"
)

// BenchmarkSlabGetPut is the cycle every fetched segment, frame body and
// gateway chunk pays: one goroutine, then two on the same class (ns/op
// is per Get+Put pair either way).
func BenchmarkSlabGetPut(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"single", 1}, {"two-goroutines", 2}} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			SlabPut(SlabGet(64 << 10))
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						SlabPut(SlabGet(64 << 10))
					}
				}(b.N / workers)
			}
			wg.Wait()
		})
	}
}
