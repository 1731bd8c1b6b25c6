package shm

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAllocAndZeroCopyVisibility(t *testing.T) {
	r, err := NewRegion(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel domain writes...
	copy(b.Bytes(), []byte("feature-vector"))
	// ...user domain resolves the same offset and sees the bytes with no copy.
	view, err := r.At(b.Offset(), b.Size())
	if err != nil {
		t.Fatal(err)
	}
	if string(view[:14]) != "feature-vector" {
		t.Fatalf("user view = %q", view[:14])
	}
	// And mutations flow the other way too.
	view[0] = 'F'
	if b.Bytes()[0] != 'F' {
		t.Fatal("kernel view did not observe user write: not zero-copy")
	}
}

func TestFreeReturnsSpace(t *testing.T) {
	r, _ := NewRegion(1 << 10)
	b, err := r.Alloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(64); err == nil {
		t.Fatal("alloc on full region succeeded")
	}
	if err := r.Free(b); err != nil {
		t.Fatal(err)
	}
	if r.Used() != 0 {
		t.Fatalf("Used = %d after free", r.Used())
	}
	if _, err := r.Alloc(64); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestFreeForeignBufferRejected(t *testing.T) {
	r1, _ := NewRegion(1 << 10)
	r2, _ := NewRegion(1 << 10)
	b, _ := r1.Alloc(64)
	if err := r2.Free(b); err == nil {
		t.Fatal("freeing foreign buffer succeeded")
	}
	if err := r1.Free(nil); err == nil {
		t.Fatal("freeing nil buffer succeeded")
	}
}

func TestAtBoundsChecks(t *testing.T) {
	r, _ := NewRegion(100)
	for _, c := range []struct{ off, size int64 }{
		{-1, 10}, {0, -1}, {90, 20}, {101, 1},
	} {
		if _, err := r.At(c.off, c.size); err == nil {
			t.Errorf("At(%d, %d) succeeded, want error", c.off, c.size)
		}
	}
	if _, err := r.At(0, 100); err != nil {
		t.Errorf("At(0, 100) failed: %v", err)
	}
}

func TestNewRegionRejectsBadSize(t *testing.T) {
	if _, err := NewRegion(0); err == nil {
		t.Fatal("NewRegion(0) succeeded")
	}
	if _, err := NewRegion(-5); err == nil {
		t.Fatal("NewRegion(-5) succeeded")
	}
}

// Property: concurrent-free buffers never overlap in the region.
func TestQuickBuffersDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		r, err := NewRegion(1 << 20)
		if err != nil {
			return false
		}
		type span struct{ lo, hi int64 }
		var spans []span
		for _, s := range sizes {
			b, err := r.Alloc(int64(s) + 1)
			if err != nil {
				break
			}
			spans = append(spans, span{b.Offset(), b.Offset() + b.Size()})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIsIdempotentAndFencesAccessors(t *testing.T) {
	r, err := NewRegion(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Bytes(), "staged")
	for i := 0; i < 2; i++ {
		if err := r.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := r.At(b.Offset(), b.Size()); !errors.Is(err, ErrClosed) {
		t.Fatalf("At after Close: err = %v, want ErrClosed", err)
	}
	if _, err := r.Alloc(64); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc after Close: err = %v, want ErrClosed", err)
	}
	if err := r.Free(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("Free after Close: err = %v, want ErrClosed", err)
	}
	if got := b.Bytes(); got != nil {
		t.Fatalf("Bytes after Close = %d bytes, want nil", len(got))
	}
	if got := r.Size(); got != 1<<16 {
		t.Fatalf("Size after Close = %d", got)
	}
}

// On off-heap builds a region costs the Go heap nothing: mapping 256 MiB
// must not move the heap the garbage collector paces against.
func TestRegionOffHeap(t *testing.T) {
	if !offHeap {
		t.Skip("this build keeps lakeShm on the Go heap")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := NewRegion(256 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := r.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapSys) - int64(before.HeapSys); grew > 16<<20 {
		t.Fatalf("heap grew %d bytes for an off-heap region", grew)
	}
}
