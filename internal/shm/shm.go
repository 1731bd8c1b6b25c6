// Package shm implements lakeShm, LAKE's bulk-data kernel<->user shared
// memory channel (§4: "lakeShm works by requesting and mapping a large
// contiguous memory region from the Linux kernel. When lakeD is started, the
// same region is mapped to its process").
//
// The region here is one contiguous byte range playing the role of the
// CMA-backed DMA region (the artifact boots with cma=128M). Buffers handed
// out by Alloc are sub-slices of the region, so kernel-domain code and the
// user-domain daemon literally address the same memory — the zero-copy
// property §4.1 relies on. Placement uses the best-fit allocator, as in the
// prototype.
//
// On unix builds without the race detector the range is an anonymous
// MAP_NORESERVE mapping outside the Go heap: only the pages actually
// written take memory, and the region does not count toward the garbage
// collector's heap goal. Race-detector builds (and non-unix ones) back it
// with an ordinary heap slice, because the race detector cannot see
// accesses to memory it did not allocate. Close releases the range.
package shm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lakego/internal/bestfit"
)

// ErrClosed is returned by region accessors after Close.
var ErrClosed = errors.New("shm: region closed")

// DefaultRegionSize matches the artifact's cma=128M boot parameter.
const DefaultRegionSize = 128 << 20

// allocAlign keeps buffers cache-line aligned, like the prototype's
// allocator.
const allocAlign = 64

// Region is the shared contiguous memory area. All methods are safe for
// concurrent use, except that Close must not race with any use of the
// region's memory: the caller closes it once both domains are done with it.
type Region struct {
	mu     sync.Mutex
	mem    []byte
	size   int64
	closed atomic.Bool
	alloc  *bestfit.Allocator
}

// Buffer is one allocation inside the region. The same Buffer value is
// usable from both the kernel domain and the user domain; Offset is the
// stable identifier that crosses the boundary in remoted commands.
type Buffer struct {
	region *Region
	off    int64
	size   int64
}

// NewRegion reserves a shared region of size bytes.
func NewRegion(size int64) (*Region, error) {
	a, err := bestfit.New(size, allocAlign)
	if err != nil {
		return nil, fmt.Errorf("shm: %w", err)
	}
	mem, err := mapRegion(size)
	if err != nil {
		return nil, fmt.Errorf("shm: map %d bytes: %w", size, err)
	}
	return &Region{mem: mem, size: size, alloc: a}, nil
}

// Close releases the region's memory. It is idempotent; once it has
// returned, Alloc, Free and At return ErrClosed and Buffer.Bytes returns
// nil. Slices obtained before Close must not be used after it. At and
// Buffer.Bytes read the memory without the lock, so a call that overlaps
// Close is a caller bug and may fault on off-heap builds: the caller closes
// the region only once nothing can still reach it.
func (r *Region) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil
	}
	r.closed.Store(true)
	mem := r.mem
	r.mem = nil
	if err := unmapRegion(mem); err != nil {
		return fmt.Errorf("shm: unmap: %w", err)
	}
	return nil
}

// Size returns the total region size.
func (r *Region) Size() int64 { return r.size }

// Used returns currently allocated bytes (including alignment padding).
func (r *Region) Used() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alloc.Used()
}

// Alloc reserves a buffer of size bytes, the kernel-side malloc-like call
// the paper describes ("lakeShm ... provides a function similar to malloc").
func (r *Region) Alloc(size int64) (*Buffer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	off, err := r.alloc.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("shm: %w", err)
	}
	return &Buffer{region: r, off: off, size: size}, nil
}

// Free releases the buffer back to the region.
func (r *Region) Free(b *Buffer) error {
	if b == nil || b.region != r {
		return fmt.Errorf("shm: buffer does not belong to this region")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	return r.alloc.Free(b.off)
}

// At resolves an offset/length pair received over the command channel into
// the user-domain view of the same bytes. This is lakeD's side of the
// zero-copy handoff.
func (r *Region) At(off, size int64) ([]byte, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if off < 0 || size < 0 || off+size > r.size {
		return nil, fmt.Errorf("shm: range [%d,%d) outside region of %d bytes",
			off, off+size, r.size)
	}
	return r.mem[off : off+size], nil
}

// Offset returns the buffer's offset within the region.
func (b *Buffer) Offset() int64 { return b.off }

// Size returns the buffer's requested size.
func (b *Buffer) Size() int64 { return b.size }

// Bytes returns the buffer's backing memory, or nil once the region is
// closed. Writes are visible to both domains immediately: there is exactly
// one copy of the data.
func (b *Buffer) Bytes() []byte {
	if b.region.closed.Load() {
		return nil
	}
	return b.region.mem[b.off : b.off+b.size]
}
