package core

import (
	"errors"
	"testing"

	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/shm"
)

// Close stops lakeD before it releases lakeShm, and a second Close is a
// no-op: afterwards the region answers ErrClosed instead of touching
// released memory, and calls fail cleanly.
func TestCloseReleasesRegionOnce(t *testing.T) {
	for _, ch := range []boundary.Kind{boundary.Netlink, boundary.Ring} {
		cfg := DefaultConfig()
		cfg.Channel = ch
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := rt.Region().Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
		rt.Close()
		if _, err := rt.Region().At(buf.Offset(), buf.Size()); !errors.Is(err, shm.ErrClosed) {
			t.Fatalf("%s: At after Close: err = %v, want ErrClosed", ch, err)
		}
		if rt.Daemon().PumpOne() {
			t.Fatalf("%s: stopped lakeD served a command", ch)
		}
		if _, r := rt.Lib().CuDeviceGetCount(); r == cuda.Success {
			t.Fatalf("%s: call succeeded on a closed runtime", ch)
		}
	}
}

// A lakeD crash and restart (the supervisor respawning the daemon) keeps
// the lakeShm region: the restarted daemon re-attaches to the same mapping,
// so data staged before the crash crosses the boundary after it.
func TestDaemonRestartKeepsRegion(t *testing.T) {
	rt := newFaultyRuntime(t, faults.Mix{Seed: 1}, SupervisorConfig{})
	lib := rt.Lib()
	buf, err := rt.Region().Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf.Bytes() {
		buf.Bytes()[i] = byte(i)
	}
	dev, r := lib.CuMemAlloc(256)
	if r != cuda.Success {
		t.Fatal(r)
	}
	rt.Daemon().InjectCrash(false)
	if r := lib.CuMemcpyHtoDShm(dev, buf, 256); r != cuda.Success {
		t.Fatalf("staged copy across the restart: %s", r)
	}
	if got := rt.Daemon().Restarts(); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	back, err := rt.Region().Alloc(256)
	if err != nil {
		t.Fatalf("region unusable after the restart: %v", err)
	}
	if r := lib.CuMemcpyDtoHShm(back, dev, 256); r != cuda.Success {
		t.Fatal(r)
	}
	for i, b := range back.Bytes() {
		if b != byte(i) {
			t.Fatalf("byte %d = %d after the restart, want %d", i, b, byte(i))
		}
	}
}
