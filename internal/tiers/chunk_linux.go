package tiers

import "syscall"

// mapChunk is the slab's chunk source where the platform maps anonymous
// memory: n bytes outside the Go heap, faulted in by the one call
// (MAP_POPULATE) so that whoever fills a buffer carved from it takes no
// page fault per 4 KiB. The mapping is private and is never unmapped.
// It returns nil when the kernel refuses (address-space or memory
// limit); the caller then serves that request from the heap.
func mapChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return nil
	}
	return b
}

// dropPages hands a free buffer's pages back to the OS; the range stays
// mapped and reads as zeros until it is written again. Failure leaves
// the pages resident, which costs memory and nothing else.
func dropPages(b []byte) {
	syscall.Madvise(b, syscall.MADV_DONTNEED) //nolint:errcheck // see above
}
