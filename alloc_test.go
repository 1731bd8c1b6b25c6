// Allocation gates for the ring transport's steady-state hot paths: the CI
// allocgate job runs `go test -run 'TestAllocs'` and any regression from 0
// allocs/op fails the build. The gated paths are the single remoted call
// (lakeLib stub -> wire marshal -> descriptor ring -> lakeD decode/execute ->
// completion ring -> response demux) and the batcher's flush wire path
// (CuBatchedInferInto over a warmed scratch). The legacy channel transport
// is exempt: its per-message copy + channel handoff is the cost the ring
// replaces.
package lake_test

import (
	"testing"

	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/gpu"
	"lakego/internal/healthplane"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/remoting"
)

// ringConfig is the default runtime switched onto the descriptor-ring
// transport.
func ringConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Channel = boundary.Ring
	return cfg
}

func newRingRuntime(t testing.TB) *core.Runtime {
	t.Helper()
	rt, err := core.New(ringConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestAllocsRingRemotedCall gates the headline budget: a steady-state
// remoted call over the ring transport performs zero heap allocations on
// either side of the boundary.
func TestAllocsRingRemotedCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := newRingRuntime(t)
	lib := rt.Lib()
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	// Warm the pools: callState, frame capacity, daemon scratch — and one
	// full lap of the 4096-slot journal ring, whose per-slot buffers grow on
	// first use and are recycled in place ever after.
	for i := 0; i < 4100; i++ {
		if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatal(r)
		}
	}
	n := testing.AllocsPerRun(1000, func() {
		if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatal(r)
		}
	})
	if n != 0 {
		t.Fatalf("ring remoted call allocates %v objects/op, want 0", n)
	}
}

// TestAllocsRingRemotedCallWithHealthPlane re-runs the headline gate with
// the live health plane attached and actively tailing: the tailer chases
// the recorder ring with its own cursor, so an armed plane must not add a
// single allocation (or any other disturbance) to the Emit-side call path.
func TestAllocsRingRemotedCallWithHealthPlane(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := newRingRuntime(t)
	plane := rt.NewHealthPlane(healthplane.Config{})
	lib := rt.Lib()
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	for i := 0; i < 4100; i++ { // one full journal lap, see above
		if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatal(r)
		}
	}
	// Drain the backlog so the tail cursor sits mid-ring, the worst case
	// for the Emit/Tail interleave, then gate the call path.
	plane.Poll()
	n := testing.AllocsPerRun(1000, func() {
		if _, r := lib.CuDeviceGetCount(); r != cuda.Success {
			t.Fatal(r)
		}
	})
	if n != 0 {
		t.Fatalf("ring remoted call with health plane attached allocates %v objects/op, want 0", n)
	}
	if snap := plane.SLO(); len(snap.Stages) == 0 {
		t.Fatal("plane never ingested the tailed call events")
	}
}

// TestAllocsRingCallWithValues gates a stub that returns values and carries
// args (the memcpy accounting path), not just the arg-less device count.
func TestAllocsRingCallWithValues(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := newRingRuntime(t)
	lib := rt.Lib()
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	ptr, r := lib.CuMemAlloc(256)
	if r != cuda.Success {
		t.Fatal(r)
	}
	src := make([]byte, 256)
	for i := 0; i < 4100; i++ { // one full journal lap, see above
		if r := lib.CuMemcpyHtoD(ptr, src); r != cuda.Success {
			t.Fatal(r)
		}
	}
	n := testing.AllocsPerRun(1000, func() {
		if r := lib.CuMemcpyHtoD(ptr, src); r != cuda.Success {
			t.Fatal(r)
		}
	})
	if n != 0 {
		t.Fatalf("ring CuMemcpyHtoD allocates %v objects/op, want 0", n)
	}
}

// inPlaceKernel is an inference-shaped kernel (args = [in, out, n]) whose
// body moves bytes without allocating, so the flush gate below measures only
// the wire path.
func inPlaceKernel(name string) *cuda.Kernel {
	return &cuda.Kernel{
		Name:  name,
		Flops: func(args []uint64) float64 { return float64(args[2]) },
		Body: func(dev *gpu.Device, args []uint64) error {
			inMem, err := dev.Bytes(gpu.DevPtr(args[0]))
			if err != nil {
				return err
			}
			outMem, err := dev.Bytes(gpu.DevPtr(args[1]))
			if err != nil {
				return err
			}
			copy(outMem, inMem[:int(args[2])*4])
			return nil
		},
	}
}

// TestAllocsRingBatchedFlushWire gates the batcher's flush wire path: a
// warmed CuBatchedInferInto — marshal into scratch, one ring round trip, one
// gathered launch, per-entry demux into scratch — is allocation-free.
func TestAllocsRingBatchedFlushWire(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := newRingRuntime(t)
	lib := rt.Lib()
	rt.RegisterKernel(inPlaceKernel("identity"))
	if r := lib.CuInit(); r != cuda.Success {
		t.Fatal(r)
	}
	ctx, r := lib.CuCtxCreate("allocgate")
	if r != cuda.Success {
		t.Fatal(r)
	}
	mod, r := lib.CuModuleLoad("identity.cubin")
	if r != cuda.Success {
		t.Fatal(r)
	}
	fn, r := lib.CuModuleGetFunction(mod, "identity")
	if r != cuda.Success {
		t.Fatal(r)
	}
	const maxItems = 32
	devIn, r := lib.CuMemAlloc(4 * maxItems)
	if r != cuda.Success {
		t.Fatal(r)
	}
	devOut, r := lib.CuMemAlloc(4 * maxItems)
	if r != cuda.Success {
		t.Fatal(r)
	}
	spec := remoting.BatchSpec{Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut, InWidth: 1, OutWidth: 1}

	region := rt.Region()
	entries := make([]remoting.BatchEntry, 4)
	for i := range entries {
		const count = 4
		in, err := region.Alloc(4 * count)
		if err != nil {
			t.Fatal(err)
		}
		out, err := region.Alloc(4 * count)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = remoting.BatchEntry{
			Seq:   uint64(100 + i),
			InOff: uint64(in.Offset()), OutOff: uint64(out.Offset()),
			Count: count,
		}
	}
	var sc remoting.BatchScratch
	flush := func() {
		res, r := lib.CuBatchedInferInto("identity", spec, entries, 0, &sc)
		if r != cuda.Success {
			t.Fatal(r)
		}
		for i, pr := range res {
			if pr != cuda.Success {
				t.Fatalf("entry %d: %v", i, pr)
			}
		}
	}
	for i := 0; i < 4100; i++ { // one full journal lap, see above
		flush()
	}
	if n := testing.AllocsPerRun(1000, flush); n != 0 {
		t.Fatalf("ring batched flush wire path allocates %v objects/op, want 0", n)
	}
}

// TestAllocsMLLBClassifyLAKE gates the unbatched MLLB inference end to end:
// input staging, the three remoted calls, the device kernel's decode,
// forward pass and encode, and the host-side output decode all run on
// reused scratch, so one classification allocates only the decision slice
// it hands back to the caller.
func TestAllocsMLLBClassifyLAKE(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := newRingRuntime(t)
	bal, err := mllb.New(rt, nn.New(1, mllb.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]float32{make([]float32, mllb.InputWidth)}
	for i := range batch[0] {
		batch[0][i] = float32(i) / 4
	}
	classify := func() {
		if _, _, err := bal.ClassifyLAKE(batch, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1400; i++ { // 3 calls each: one full journal lap, see above
		classify()
	}
	if n := testing.AllocsPerRun(1000, classify); n > 1 {
		t.Fatalf("MLLB ClassifyLAKE allocates %v objects/op, want <= 1", n)
	}
}

// TestAllocsLinnOSInferLAKE gates the unbatched LinnOS inference on the
// shared offload runner: a batch stages, launches and decodes on reused
// runner and kernel scratch, and resolves its forward from the
// hot-swap slot without binding a method value, so one batch allocates only
// the prediction slice it hands back to the caller.
func TestAllocsLinnOSInferLAKE(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := newRingRuntime(t)
	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(1, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float32, 16)
	for i := range batch {
		batch[i] = make([]float32, linnos.InputWidth)
		for j := range batch[i] {
			batch[i][j] = float32((i+j)%7) / 7
		}
	}
	infer := func() {
		if _, _, err := pred.InferLAKE(batch, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1400; i++ { // 3 calls each: one full journal lap, see above
		infer()
	}
	if n := testing.AllocsPerRun(1000, infer); n > 1 {
		t.Fatalf("LinnOS InferLAKE allocates %v objects/op, want <= 1", n)
	}
}
