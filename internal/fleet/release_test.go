package fleet_test

import (
	"errors"
	"testing"

	"lakego/internal/faults"
	"lakego/internal/fleet"
	"lakego/internal/gpupool"
	"lakego/internal/shm"
)

// released reports whether the shard's lakeShm region has been closed.
func released(s *fleet.Shard) bool {
	_, err := s.Runtime().Region().At(0, 0)
	return errors.Is(err, shm.ErrClosed)
}

// A killed shard keeps its lakeShm region while its queued requests finish
// on the CPU fallback, releases it with the last delivery, and leaves every
// survivor's region mapped. Fleet.Close then releases the rest, and a
// second Close is a no-op.
func TestFleetKillReleasesRegion(t *testing.T) {
	f, net := newFleet(t, 2, gpupool.RoundRobin, func(cfg *fleet.Config) {
		cfg.Runtime.Faults = &faults.Mix{Seed: 21} // plane attached; the kill is manual
	})
	a := f.Client("tenant-a")
	inferOne(t, a, net, 0) // shard 0
	var pend []*fleet.Pending
	for i := 0; i < 3; i++ {
		p, err := a.Submit("fleetnet", [][]float32{feature(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	if _, err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	if released(f.Shard(0)) {
		t.Fatal("region released with requests still queued on the killed shard")
	}
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("queued request %d: %v", i, err)
		}
	}
	if !released(f.Shard(0)) {
		t.Fatal("killed shard's region still mapped after its last delivery")
	}
	inferOne(t, a, net, 20) // rerouted onto the survivor
	if released(f.Shard(1)) {
		t.Fatal("survivor's region released")
	}
	f.Close()
	f.Close()
	if !released(f.Shard(1)) {
		t.Fatal("Fleet.Close left a region mapped")
	}
}

// A drained shard is quiet by construction, so Drain releases its region
// before returning.
func TestFleetDrainReleasesRegion(t *testing.T) {
	f, net := newFleet(t, 2, gpupool.RoundRobin, nil)
	inferOne(t, f.Client("a"), net, 0)
	if _, err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	if !released(f.Shard(0)) {
		t.Fatal("drained shard's region still mapped")
	}
	inferOne(t, f.Client("a"), net, 1)
}
