// Substrate micro-benchmarks: real wall-clock performance of the hot code
// paths (allocator, lock-free capture, wire protocol, inference math,
// end-to-end remoted calls). Unlike the figure benchmarks, these measure
// the library itself rather than the simulated hardware.
package lake_test

import (
	"testing"
	"time"

	"lakego/internal/bestfit"
	"lakego/internal/core"
	"lakego/internal/features"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/linnos"
	"lakego/internal/lockfree"
	"lakego/internal/nn"
	"lakego/internal/remoting"
	"lakego/internal/ringbuf"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

func BenchmarkPerfBestFitAllocFree(b *testing.B) {
	a, err := bestfit.New(64<<20, 64)
	if err != nil {
		b.Fatal(err)
	}
	offs := make([]int64, 0, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := a.Alloc(int64(1024 + i%4096))
		if err != nil {
			// Region full: drain and continue.
			for _, o := range offs {
				a.Free(o)
			}
			offs = offs[:0]
			continue
		}
		offs = append(offs, off)
		if len(offs) == 128 {
			for _, o := range offs {
				a.Free(o)
			}
			offs = offs[:0]
		}
	}
}

func BenchmarkPerfLockfreeCapture(b *testing.B) {
	m := lockfree.NewMap(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Add("pend_ios", 1)
		}
	})
}

func BenchmarkPerfRegistryCommit(b *testing.B) {
	s := features.NewStore()
	reg, err := s.CreateRegistry("bench", "sys", features.Schema{
		{Key: "pend_ios", Size: 8, Entries: 1},
		{Key: "io_latency", Size: 8, Entries: 4},
	}, 1024)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.BeginCapture(0)
		reg.CaptureFeatureIncr("pend_ios", 1)
		reg.CaptureFeature("io_latency", val)
		reg.CommitCapture(0)
	}
}

func BenchmarkPerfMarshalCommand(b *testing.B) {
	cmd := &remoting.Command{
		API:  remoting.APICuLaunchKernel,
		Seq:  1,
		Args: []uint64{1, 2, 3, 4, 5, 6},
		Name: "vecadd",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := remoting.MarshalCommand(cmd)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := remoting.UnmarshalCommand(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfNNForward(b *testing.B) {
	net := nn.New(1, linnos.Base.Sizes()...)
	x := make([]float32, net.InputSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// gpuFullHistory returns a device holding 5 s of 5-µs launches every 15 µs
// (333k busy spans): the history the remoted call path carries once the
// device clock passes the utilization horizon.
func gpuFullHistory() *gpu.Device {
	clk := vtime.New()
	d := gpu.New(gpu.DefaultSpec(), clk)
	for clk.Now() < 5*time.Second {
		d.Execute("bench", 5*time.Microsecond, nil)
		clk.Advance(10 * time.Microsecond)
	}
	return d
}

// BenchmarkPerfGPULaunchFullHistory measures one launch on a device whose
// span history is full, so every launch also prunes an expired span.
func BenchmarkPerfGPULaunchFullHistory(b *testing.B) {
	d := gpuFullHistory()
	clk := d.Clock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Execute("bench", 5*time.Microsecond, nil)
		clk.Advance(10 * time.Microsecond)
	}
}

// BenchmarkPerfGPUUtilization measures the NVML 50-ms utilization sample
// on the same full history.
func BenchmarkPerfGPUUtilization(b *testing.B) {
	d := gpuFullHistory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Utilization(50*time.Millisecond, "")
	}
}

func BenchmarkPerfRingPush(b *testing.B) {
	r := ringbuf.New[int](1024)
	for i := 0; i < b.N; i++ {
		r.Push(i)
	}
}

func benchRemotedCall(b *testing.B, cfg core.Config) {
	rt, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	lib := rt.Lib()
	b.ReportAllocs()
	b.ResetTimer()
	start := rt.Clock().Now()
	for i := 0; i < b.N; i++ {
		if _, r := lib.CuDeviceGetCount(); r != 0 {
			b.Fatal(r)
		}
	}
	// Modeled per-call latency (virtual ns): the figure-level metric the
	// boundary cost model charges, what the >= 2x ring acceptance gates on.
	b.ReportMetric(float64(rt.Clock().Now()-start)/float64(b.N), "vns_per_call")
}

func BenchmarkPerfRemotedCall(b *testing.B) {
	benchRemotedCall(b, core.DefaultConfig())
}

// BenchmarkPerfRemotedCallRing is the ring-transport counterpart of
// BenchmarkPerfRemotedCall: same stub, same daemon, the Go-channel doorbell
// replaced by shm-resident descriptor rings. The acceptance bar (>= 2x over
// the channel transport, 0 allocs/op) is pinned by TestRingCallSpeedup and
// the TestAllocs gates.
func BenchmarkPerfRemotedCallRing(b *testing.B) {
	benchRemotedCall(b, ringConfig())
}

// BenchmarkPerfTailDrain measures the health plane's ingestion substrate:
// emit a batch of events into the flight-recorder ring, then drain them
// non-destructively with TailInto over a reused buffer. The reported time
// covers one emit + one tailed read per op; 0 allocs/op is the bar the
// TestTailRaceStorm/alloc gates pin.
func BenchmarkPerfTailDrain(b *testing.B) {
	rec := flightrec.New(vtime.New(), 1<<12)
	const batch = 64
	buf := make([]flightrec.Event, batch)
	var cur flightrec.TailCursor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			rec.Emit(flightrec.DomainKernel, flightrec.EvChannel,
				uint64(i+j), uint64(j), 0, 1500, 96, 0)
		}
		for {
			n, next, _ := rec.TailInto(cur, buf)
			cur = next
			if n < len(buf) {
				break
			}
		}
	}
}

// BenchmarkPerfWindowedObserve measures the SLO engine's other feed: one
// observation into a telemetry windowed histogram (current-epoch bucket
// increment behind an atomic epoch pointer).
func BenchmarkPerfWindowedObserve(b *testing.B) {
	w := telemetry.NewWindowedHistogram(telemetry.DefaultLatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Observe(int64(1000 + i%100_000))
	}
}

// BenchmarkPerfRingDescriptor measures the raw descriptor ring: one
// uncontended Push/Pop/Release cycle.
func BenchmarkPerfRingDescriptor(b *testing.B) {
	r := ringbuf.NewMPSC(64)
	d := ringbuf.Desc{Seq: 1, Slot: 3, Len: 512}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !r.Push(d) {
			b.Fatal("ring full")
		}
		_, ticket, ok := r.Pop()
		if !ok {
			b.Fatal("ring empty")
		}
		r.Release(ticket)
	}
}

// BenchmarkPerfDoorbell measures the no-waiter Ring fast path — the cost a
// producer pays per send when the consumer is already running.
func BenchmarkPerfDoorbell(b *testing.B) {
	bell := lockfree.NewDoorbell()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bell.Ring()
	}
}
