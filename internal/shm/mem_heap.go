//go:build !unix || aix || race

package shm

// offHeap reports whether regions live outside the Go heap in this build.
// Race-detector builds keep the region on the heap: the detector does not
// track memory the Go runtime did not allocate, so an mmap'd region would
// hide every race on shared-memory payloads.
const offHeap = false

func mapRegion(size int64) ([]byte, error) { return make([]byte, size), nil }

// unmapRegion drops nothing: the slice is garbage once the region forgets it.
func unmapRegion([]byte) error { return nil }
