package gpu

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"lakego/internal/vtime"
)

func newDev() *Device { return New(DefaultSpec(), vtime.New()) }

func TestAllocWriteReadFree(t *testing.T) {
	d := newDev()
	ptr, err := d.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := d.Bytes(ptr)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte("hello"))
	buf2, _ := d.Bytes(ptr)
	if string(buf2[:5]) != "hello" {
		t.Fatalf("device memory = %q, want hello", buf2[:5])
	}
	if got := d.MemUsed(); got != 64 {
		t.Fatalf("MemUsed = %d, want 64", got)
	}
	if err := d.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if got := d.MemUsed(); got != 0 {
		t.Fatalf("MemUsed after free = %d, want 0", got)
	}
	if _, err := d.Bytes(ptr); !errors.Is(err, ErrBadPtr) {
		t.Fatalf("Bytes after free: err = %v, want ErrBadPtr", err)
	}
}

func TestAllocRejectsOversize(t *testing.T) {
	spec := DefaultSpec()
	spec.MemoryBytes = 128
	d := New(spec, vtime.New())
	if _, err := d.Alloc(256); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if _, err := d.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
}

func TestAllocationsDoNotAlias(t *testing.T) {
	d := newDev()
	p1, _ := d.Alloc(16)
	p2, _ := d.Alloc(16)
	b1, _ := d.Bytes(p1)
	b2, _ := d.Bytes(p2)
	b1[0] = 0xAA
	if b2[0] == 0xAA {
		t.Fatal("distinct allocations share memory")
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	d := newDev()
	small := d.TransferTime(1 << 10)
	large := d.TransferTime(1 << 20)
	if large <= small {
		t.Fatalf("TransferTime(1MB)=%v not > TransferTime(1KB)=%v", large, small)
	}
	// A 12 GB/s link moves 12 MB in ~1 ms; check within 2x.
	got := d.TransferTime(12 << 20)
	if got < 500*time.Microsecond || got > 2*time.Millisecond {
		t.Fatalf("TransferTime(12MB) = %v, want ~1ms", got)
	}
}

func TestComputeTime(t *testing.T) {
	d := newDev()
	if got := d.ComputeTime(0); got != 0 {
		t.Fatalf("ComputeTime(0) = %v, want 0", got)
	}
	// 4.5 GFLOP at 4500 GFLOPS = 1 ms.
	got := d.ComputeTime(4.5e9)
	if got != time.Millisecond {
		t.Fatalf("ComputeTime(4.5e9) = %v, want 1ms", got)
	}
}

func TestExecuteAdvancesClockAndRunsKernel(t *testing.T) {
	clk := vtime.New()
	d := New(DefaultSpec(), clk)
	ran := false
	end := d.Execute("kernel", 100*time.Microsecond, func() { ran = true })
	if !ran {
		t.Fatal("kernel body did not run")
	}
	if end != 100*time.Microsecond || clk.Now() != end {
		t.Fatalf("end = %v, clock = %v; want both 100µs", end, clk.Now())
	}
}

func TestExecuteQueuesBehindBusyDevice(t *testing.T) {
	clk := vtime.New()
	d := New(DefaultSpec(), clk)
	d.Execute("a", 50*time.Microsecond, nil)
	// Rewind our view: a second client issuing at t=50µs queues... but with a
	// shared clock the device is already free. Use OccupyUntil to model an
	// overlapping occupant instead.
	d.OccupyUntil("hog", 200*time.Microsecond)
	end := d.Execute("b", 10*time.Microsecond, nil)
	if end != 210*time.Microsecond {
		t.Fatalf("queued kernel finished at %v, want 210µs", end)
	}
}

func TestUtilizationWindowed(t *testing.T) {
	clk := vtime.New()
	d := New(DefaultSpec(), clk)
	d.Execute("ml", 100*time.Millisecond, nil) // busy [0,100ms]
	clk.Advance(100 * time.Millisecond)        // idle [100ms,200ms]
	got := d.Utilization(200*time.Millisecond, "")
	if got < 0.45 || got > 0.55 {
		t.Fatalf("Utilization = %.3f, want ~0.5", got)
	}
}

func TestUtilizationPerClient(t *testing.T) {
	clk := vtime.New()
	d := New(DefaultSpec(), clk)
	d.Execute("ml", 40*time.Millisecond, nil)
	d.Execute("hash", 60*time.Millisecond, nil)
	all := d.Utilization(100*time.Millisecond, "")
	ml := d.Utilization(100*time.Millisecond, "ml")
	hash := d.Utilization(100*time.Millisecond, "hash")
	if all < 0.99 {
		t.Fatalf("total utilization = %.3f, want ~1.0", all)
	}
	if ml < 0.35 || ml > 0.45 {
		t.Fatalf("ml utilization = %.3f, want ~0.4", ml)
	}
	if hash < 0.55 || hash > 0.65 {
		t.Fatalf("hash utilization = %.3f, want ~0.6", hash)
	}
}

func TestUtilizationEmptyWindow(t *testing.T) {
	d := newDev()
	if got := d.Utilization(time.Second, ""); got != 0 {
		t.Fatalf("idle utilization = %v, want 0", got)
	}
	if got := d.Utilization(0, ""); got != 0 {
		t.Fatalf("zero-window utilization = %v, want 0", got)
	}
}

func TestSpanPruning(t *testing.T) {
	clk := vtime.New()
	d := New(DefaultSpec(), clk)
	for i := 0; i < 1000; i++ {
		d.Execute("x", 10*time.Millisecond, nil)
	}
	d.mu.Lock()
	live, physical := d.spanCount, len(d.spans)
	d.mu.Unlock()
	// 5s history at 10ms per span = at most ~501 spans retained.
	if live > 600 {
		t.Fatalf("retained %d spans, pruning not effective", live)
	}
	// Pruned slots are reused: the ring only grows while it is full.
	if physical > 2*live+1 {
		t.Fatalf("span ring holds %d slots for %d live spans", physical, live)
	}
	if got := d.Launches(); got != 1000 {
		t.Fatalf("Launches = %d, want 1000", got)
	}
}

// Property: utilization is always within [0,1] regardless of the schedule.
func TestQuickUtilizationBounded(t *testing.T) {
	f := func(costs []uint16, idles []uint16, window uint32) bool {
		clk := vtime.New()
		d := New(DefaultSpec(), clk)
		for i, c := range costs {
			d.Execute("w", time.Duration(c)*time.Microsecond, nil)
			if i < len(idles) {
				clk.Advance(time.Duration(idles[i]) * time.Microsecond)
			}
		}
		u := d.Utilization(time.Duration(window)*time.Microsecond, "")
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
