//go:build unix && !aix && !race

package shm

import (
	"fmt"
	"math"
	"syscall"
)

// offHeap reports whether regions live outside the Go heap in this build.
const offHeap = true

// mapRegion reserves size bytes of anonymous, zero-filled memory outside
// the Go heap. MAP_NORESERVE commits no swap up front, so an untouched
// region costs address space only.
func mapRegion(size int64) ([]byte, error) {
	if size > math.MaxInt {
		return nil, fmt.Errorf("size %d exceeds the address space", size)
	}
	return syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
}

func unmapRegion(mem []byte) error { return syscall.Munmap(mem) }
