// Acceptance tests for the observability plane: a remoted call must stitch
// into a complete stage timeline from the flight recorder, the batcher's
// coalescing must appear on its flush's timeline, and keeping telemetry
// enabled (its default) must stay within the <5% wall-clock overhead bound
// on the batched-inference workload.
package lake_test

import (
	"strings"
	"testing"
	"time"

	lake "lakego"
	"lakego/internal/batcher"
	"lakego/internal/linnos"
	"lakego/internal/nn"
	"lakego/internal/remoting"
)

// stitchedTimelines snapshots the runtime's flight recorder and stitches it
// into per-call timelines.
func stitchedTimelines(t *testing.T, rt *lake.Runtime) []lake.FlightTimeline {
	t.Helper()
	res := lake.StitchFlightDump(rt.FlightRecorder().Snapshot(t.Name()))
	if len(res.Timelines) == 0 {
		t.Fatal("no timelines stitched from the flight recorder")
	}
	return res.Timelines
}

// TestTracedInferenceTimeline follows one offloaded call end to end: the
// stitched timeline of a remoted cuLaunchKernel must carry the whole
// client→daemon→client chain, with the daemon's execution window inside
// the call and both the boundary crossing and the device execution
// occupying virtual time.
func TestTracedInferenceTimeline(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("trace-test")
	if r != lake.Success {
		t.Fatalf("cuCtxCreate: %s", r)
	}
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		t.Fatalf("cuModuleGetFunction: %s", r)
	}
	const n = 16
	da, _ := lib.CuMemAlloc(4 * n)
	dc, _ := lib.CuMemAlloc(4 * n)
	if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), n}); r != lake.Success {
		t.Fatalf("launch: %s", r)
	}

	var launch *lake.FlightTimeline
	timelines := stitchedTimelines(t, rt)
	for i := range timelines {
		if timelines[i].API == uint64(remoting.APICuLaunchKernel) {
			launch = &timelines[i]
		}
	}
	if launch == nil {
		t.Fatalf("no cuLaunchKernel timeline among %d", len(timelines))
	}
	if !launch.Complete {
		t.Fatalf("cuLaunchKernel timeline incomplete, missing %v", launch.Missing)
	}
	if launch.ExecStartV < launch.Start || launch.ExecEndV > launch.End || launch.ExecEndV < launch.ExecStartV {
		t.Errorf("exec window [%v, %v] escapes call [%v, %v]",
			launch.ExecStartV, launch.ExecEndV, launch.Start, launch.End)
	}
	// The modeled work — the channel round trip and the device launch —
	// must occupy virtual time.
	if launch.Boundary <= 0 || launch.Exec <= 0 {
		t.Errorf("boundary %v and exec %v must both be > 0", launch.Boundary, launch.Exec)
	}
}

// TestBatchedCoalesceTrace drives one deadline flush through the batching
// subsystem and asserts the stitched timeline of the flush's remoted call
// carries the coalesce window: the single member waited more than nothing
// and no more than MaxWait before the batch formed.
func TestBatchedCoalesceTrace(t *testing.T) {
	rt, err := lake.New(lake.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	bcfg := batcher.DefaultConfig()
	bcfg.MaxWait = 100 * time.Microsecond
	b := rt.NewBatcher(bcfg)
	if err := pred.EnableBatching(b); err != nil {
		t.Fatal(err)
	}
	c := b.Client("trace-client")
	p, err := pred.SubmitBatched(c, [][]float32{linnosFeature(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := linnos.WaitSlow(p); err != nil {
		t.Fatal(err)
	}

	var flush *lake.FlightTimeline
	timelines := stitchedTimelines(t, rt)
	for i := range timelines {
		if timelines[i].API == uint64(remoting.APIBatchedInfer) {
			flush = &timelines[i]
		}
	}
	if flush == nil {
		t.Fatalf("no lakeBatchedInfer timeline among %d", len(timelines))
	}
	if flush.Coalesce <= 0 || flush.Coalesce > bcfg.MaxWait {
		t.Fatalf("flush coalesce %v, want in (0, %v]", flush.Coalesce, bcfg.MaxWait)
	}
}

// TestTelemetryOverhead is the acceptance guard on instrumentation cost:
// the batched-inference workload with telemetry enabled (the default
// runtime shape) must stay within 5% wall-clock of the same workload on a
// runtime booted with DisableTelemetry. Each attempt takes the minimum of
// several interleaved measurements to shed scheduler noise, and the bound
// only fails after every attempt exceeds it.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	const (
		clients   = 32
		reps      = 3 // measurements per mode per attempt
		attempts  = 4
		tolerance = 1.05
	)
	measure := func(disable bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			runBatchedLinnOSCfg(t, clients, batchBenchPerClient, benchConfig(disable))
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	var ratio float64
	for a := 0; a < attempts; a++ {
		disabled := measure(true)
		enabled := measure(false)
		ratio = float64(enabled) / float64(disabled)
		t.Logf("attempt %d: telemetry enabled %v, disabled %v, ratio %.3f", a, enabled, disabled, ratio)
		if ratio <= tolerance {
			return
		}
	}
	t.Fatalf("telemetry overhead %.1f%% exceeds 5%% on every attempt", (ratio-1)*100)
}

// TestRuntimeMetricsPopulated sanity-checks the registry end to end on a
// real workload: the per-layer counters that must move, move, and both
// export formats carry them.
func TestRuntimeMetricsPopulated(t *testing.T) {
	rt, err := lake.New(benchConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := pred.InferLAKE([][]float32{linnosFeature(0, i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	tel := rt.Telemetry()
	snap := tel.Snapshot()
	for _, name := range []string{
		`lake_boundary_sent_total{channel="Netlink"}`,
		"lake_lib_calls_total",
		"lake_daemon_handled_total",
		"lake_gpu_launches_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s did not move (snapshot %+v)", name, snap.Counters)
		}
	}
	if h, ok := snap.Histograms["lake_lib_call_latency_ns"]; !ok || h.Count == 0 {
		t.Error("lake_lib_call_latency_ns histogram empty")
	}
	text := tel.PrometheusText()
	for _, want := range []string{"# TYPE lake_lib_calls_total counter", "lake_gpu_launches_total "} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestTelemetryDisabledIsNil pins the disabled contract: Telemetry()
// returns nil and the nil registry degrades safely everywhere a caller
// might poke it.
func TestTelemetryDisabledIsNil(t *testing.T) {
	rt, err := lake.New(benchConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tel := rt.Telemetry()
	if tel != nil {
		t.Fatalf("Telemetry() = %v on a DisableTelemetry runtime, want nil", tel)
	}
	// Exercising the runtime with a nil registry must not panic anywhere.
	lib := rt.Lib()
	if _, r := lib.CuCtxCreate("no-telemetry"); r != lake.Success {
		t.Fatalf("cuCtxCreate: %s", r)
	}
	if tel.Counter("x", "").Value() != 0 {
		t.Fatal("nil registry counter should read 0")
	}
}

// TestObservedLatencyPolicy closes the Fig 3 loop on measured signal: after
// warming the shared per-item latency histograms through real runs, an
// Adaptive policy with UseObservedLatency must route by the observed
// GPU-vs-CPU comparison rather than the static batch threshold.
func TestObservedLatencyPolicy(t *testing.T) {
	rt, err := lake.New(benchConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pred, err := linnos.NewPredictor(rt, linnos.Base, nn.New(3, linnos.Base.Sizes()...))
	if err != nil {
		t.Fatal(err)
	}
	// Warm both series past MinSamples: single-item remoted runs are far
	// slower per item than the calibrated CPU path, so observed signal
	// says "CPU" even for batches the static threshold would offload.
	for i := 0; i < 20; i++ {
		if _, _, err := pred.InferLAKE([][]float32{linnosFeature(0, i)}, true); err != nil {
			t.Fatal(err)
		}
		pred.InferCPU([][]float32{linnosFeature(0, i)})
	}
	pcfg := lake.DefaultAdaptiveConfig()
	pcfg.BatchThreshold = 1 // static gate would say GPU for any batch
	pcfg.UseObservedLatency = true
	pol := rt.NewAdaptivePolicy(pcfg)
	if dec := pol.Decide(4); dec != lake.UseCPU {
		t.Fatalf("observed-latency policy decided %v; measured single-item GPU latency should route to CPU", dec)
	}
	// Control: the same configuration without the opt-in keeps the static
	// batch-threshold behavior.
	pcfg.UseObservedLatency = false
	if dec := rt.NewAdaptivePolicy(pcfg).Decide(4); dec != lake.UseGPU {
		t.Fatalf("static policy decided %v, want GPU", dec)
	}
}
