// Command lakebench regenerates the tables and figures of the LAKE paper's
// evaluation.
//
// Usage:
//
//	lakebench -list            enumerate experiments
//	lakebench -exp fig7        run one experiment
//	lakebench -exp all         run everything (several minutes)
//	lakebench -metrics         run an instrumented workload and dump its
//	                           telemetry (Prometheus text + the per-API stage
//	                           breakdown stitched from the flight recorder)
//	lakebench -results BENCH_RESULTS.json
//	                           run the instrumented workload and write its
//	                           deterministic virtual-time metrics in the
//	                           BENCH_BASELINE.json schema; compare runs with
//	                           `benchdiff -baseline old.json BENCH_RESULTS.json`
//
// Output is printed as the same rows/series the paper reports; see
// EXPERIMENTS.md for paper-vs-measured commentary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	lake "lakego"
	"lakego/internal/cuda"
	"lakego/internal/experiments"
	"lakego/internal/flightrec"
	"lakego/internal/linnos"
	"lakego/internal/nn"
	"lakego/internal/remoting"
)

// bootInstrumented boots a runtime and drives the deterministic demo
// workload through it: 32 remoted copy-launch-copy rounds over the built-in
// vector-add kernel. Every cost in the run is virtual-clock modeled, so
// repeated runs produce identical numbers.
func bootInstrumented(devices int, poolPolicy lake.PoolPolicy) (*lake.Runtime, error) {
	cfg := lake.DefaultConfig()
	cfg.NumDevices = devices
	cfg.PoolPolicy = poolPolicy
	rt, err := lake.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := driveWorkload(rt); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

func driveWorkload(rt *lake.Runtime) error {
	rt.RegisterKernel(lake.VecAddKernel())
	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("lakebench-metrics")
	if r != lake.Success {
		return r.Err()
	}
	mod, _ := lib.CuModuleLoad("kernels.cubin")
	fn, r := lib.CuModuleGetFunction(mod, "vecadd")
	if r != lake.Success {
		return r.Err()
	}
	const n = 128
	size := int64(4 * n)
	in, err := rt.Region().Alloc(size)
	if err != nil {
		return err
	}
	out, err := rt.Region().Alloc(size)
	if err != nil {
		return err
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := cuda.PutFloat32s(in.Bytes(), vals); err != nil {
		return err
	}
	da, _ := lib.CuMemAlloc(size)
	dc, _ := lib.CuMemAlloc(size)
	for i := 0; i < 32; i++ {
		if r := lib.CuMemcpyHtoDShm(da, in, size); r != lake.Success {
			return r.Err()
		}
		if r := lib.CuLaunchKernel(ctx, fn, []uint64{uint64(da), uint64(da), uint64(dc), uint64(n)}); r != lake.Success {
			return r.Err()
		}
		if r := lib.CuMemcpyDtoHShm(out, dc, size); r != lake.Success {
			return r.Err()
		}
	}
	if _, _, r := lib.NvmlGetUtilization(); r != lake.Success {
		return r.Err()
	}
	return nil
}

// bootFleet boots an instrumented fleet and drives a deterministic
// multi-tenant LinnOS storm through the client-side router: 2*shards
// tenants, 32 single-request inferences each, issued serially so tenant
// placement — and with it every per-shard virtual-time counter — is
// identical run over run under any routing policy.
func bootFleet(shards int, routerPolicy lake.PoolPolicy) (*lake.Fleet, error) {
	cfg := lake.DefaultConfig()
	cfg.NumShards = shards
	cfg.RouterPolicy = routerPolicy
	bcfg := lake.DefaultBatcherConfig()
	bcfg.Linger = 0
	f, err := lake.NewFleet(lake.FleetConfig{Runtime: cfg, Batcher: bcfg})
	if err != nil {
		return nil, err
	}
	net := nn.New(3, linnos.Base.Sizes()...)
	if err := f.RegisterModel(lake.BatcherModel{
		Name:       "linnos",
		InputWidth: linnos.InputWidth, OutputWidth: 2,
		MaxBatch:     linnos.MaxBatch,
		CPUPerItem:   linnos.Base.CPUInferCost(),
		FlopsPerItem: net.Flops(),
		Forward:      net.ForwardInto,
	}); err != nil {
		f.Close()
		return nil, err
	}
	tenants := 2 * shards
	for r := 0; r < 32; r++ {
		for t := 0; t < tenants; t++ {
			x := linnos.FeatureVector((t*31+r*7)%97, []time.Duration{
				time.Duration((t+r)%11) * 200 * time.Microsecond,
			})
			if _, err := f.Client(fmt.Sprintf("tenant-%d", t)).Infer("linnos", [][]float32{x}); err != nil {
				f.Close()
				return nil, fmt.Errorf("tenant %d round %d: %w", t, r, err)
			}
		}
	}
	return f, nil
}

// runMetricsDemo prints the instrumented workload's Prometheus exposition
// followed by its Fig 5/6 per-API stage breakdown, stitched from the flight
// recorder — the CLI face of the observability plane. With devices > 1 the
// runtime boots a multi-GPU pool and the exposition carries per-device
// labeled series.
func runMetricsDemo(devices int, poolPolicy lake.PoolPolicy, shards int, routerPolicy lake.PoolPolicy) error {
	if shards > 1 {
		f, err := bootFleet(shards, routerPolicy)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Print(f.PrometheusText())
		return nil
	}
	rt, err := bootInstrumented(devices, poolPolicy)
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Print(rt.Telemetry().PrometheusText())
	fmt.Println("--- stage breakdown (stitched from the flight recorder) ---")
	stitch := lake.StitchFlightDump(rt.FlightRecorder().Snapshot("lakebench-metrics"))
	fmt.Print(flightrec.BreakdownTable(stitch.Timelines, func(id uint64) string { return remoting.APIID(id).String() }))
	return nil
}

// benchResults mirrors benchdiff's Baseline schema, so the file feeds
// straight into `benchdiff -baseline old.json BENCH_RESULTS.json` for
// run-over-run trajectory tracking.
type benchResults struct {
	Note       string                        `json:"note,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// writeResults runs the instrumented workload and records its
// machine-readable metrics: whole-run virtual-time throughput from the
// runtime counters plus the per-stage latency means the flight recorder's
// stitched timelines report (the Fig 5/6 stages). All values are
// virtual-clock derived and therefore deterministic run over run.
func writeResults(path string, devices int, poolPolicy lake.PoolPolicy, shards int, routerPolicy lake.PoolPolicy) error {
	if shards > 1 {
		return writeFleetResults(path, shards, routerPolicy)
	}
	rt, err := bootInstrumented(devices, poolPolicy)
	if err != nil {
		return err
	}
	defer rt.Close()

	st := rt.Stats()
	res := benchResults{
		Note:       "generated by lakebench -results: virtual-time metrics of the instrumented demo workload",
		Benchmarks: make(map[string]map[string]float64),
	}
	run := map[string]float64{
		"remoted_calls":   float64(st.RemotedCalls),
		"virtual_ns":      float64(st.VirtualTime),
		"channel_ns":      float64(st.ChannelTime),
		"kernel_launches": float64(st.KernelLaunches),
	}
	if st.VirtualTime > 0 {
		run["virtual_req_per_s"] = float64(st.RemotedCalls) / (float64(st.VirtualTime) / 1e9)
	}
	res.Benchmarks["Lakebench/run"] = run

	stitch := lake.StitchFlightDump(rt.FlightRecorder().Snapshot("lakebench-results"))
	if m := flightrec.MeasureStages(stitch.Timelines); m.Calls > 0 {
		res.Benchmarks["Lakebench/stages"] = map[string]float64{
			"calls":            float64(m.Calls),
			"per_call_ns":      m.PerCallNS,
			"queue_ns_mean":    m.QueueNS,
			"exec_ns_mean":     m.ExecNS,
			"copy_ns_mean":     m.CopyNS,
			"boundary_ns_mean": m.BoundaryNS,
		}
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("lakebench: wrote %d benchmark groups to %s\n", len(res.Benchmarks), path)
	return nil
}

// writeFleetResults is the -shards > 1 results path: the fleet storm's
// router counters plus one per-shard counter group, all virtual-clock
// derived and deterministic, in the same benchdiff-compatible schema.
func writeFleetResults(path string, shards int, routerPolicy lake.PoolPolicy) error {
	f, err := bootFleet(shards, routerPolicy)
	if err != nil {
		return err
	}
	defer f.Close()

	st := f.Stats()
	res := benchResults{
		Note:       "generated by lakebench -results -shards: virtual-time metrics of the fleet storm",
		Benchmarks: make(map[string]map[string]float64),
	}
	var requests int64
	for _, sh := range f.Shards() {
		requests += sh.Batcher().Stats().Requests
	}
	elapsed := f.VirtualElapsed()
	fleet := map[string]float64{
		"shards":     float64(shards),
		"requests":   float64(requests),
		"placements": float64(st.Placements),
		"reroutes":   float64(st.Reroutes),
		"virtual_ns": float64(elapsed),
	}
	if elapsed > 0 {
		fleet["virtual_req_per_s"] = float64(requests) / (float64(elapsed) / 1e9)
	}
	res.Benchmarks["Lakebench/fleet"] = fleet
	for _, sh := range f.Shards() {
		bs := sh.Batcher().Stats()
		rst := sh.Runtime().Stats()
		res.Benchmarks[fmt.Sprintf("Lakebench/fleet/shard=%d", sh.Ordinal())] = map[string]float64{
			"requests":        float64(bs.Requests),
			"flushes":         float64(bs.Flushes),
			"avg_batch":       bs.AvgBatch(),
			"daemon_handled":  float64(rst.DaemonHandled),
			"kernel_launches": float64(rst.KernelLaunches),
			"virtual_ns":      float64(sh.Clock().Now()),
		}
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("lakebench: wrote %d benchmark groups to %s\n", len(res.Benchmarks), path)
	return nil
}

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	out := flag.String("out", "", "also write the output to this file")
	metrics := flag.Bool("metrics", false, "run an instrumented demo workload and dump telemetry")
	results := flag.String("results", "", "run the instrumented workload and write machine-readable metrics (BENCH_BASELINE.json schema) to this file")
	devices := flag.Int("devices", 1, "number of modeled GPUs in the device pool (for -metrics)")
	poolPolicy := flag.String("pool-policy", "contention-aware", "context placement policy: round-robin, least-outstanding, contention-aware")
	shards := flag.Int("shards", 1, "number of lakeD shards; >1 runs the -metrics/-results workload through a fleet")
	routerPolicy := flag.String("router-policy", "consistent-hash", "fleet shard placement policy: round-robin, least-outstanding, contention-aware, consistent-hash")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}
	if *metrics || *results != "" {
		policy, err := lake.ParsePoolPolicy(*poolPolicy)
		if err != nil {
			log.Fatal(err)
		}
		rp, err := lake.ParsePoolPolicy(*routerPolicy)
		if err != nil {
			log.Fatal(err)
		}
		if *metrics {
			if err := runMetricsDemo(*devices, policy, *shards, rp); err != nil {
				log.Fatal(err)
			}
		}
		if *results != "" {
			if err := writeResults(*results, *devices, policy, *shards, rp); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: lakebench -exp <id>|all  (or -list, -metrics, -results out.json)")
		os.Exit(2)
	}
	var output string
	var err error
	if *exp == "all" {
		output, err = experiments.RunAll()
	} else {
		output, err = experiments.Run(*exp)
	}
	fmt.Print(output)
	if *out != "" {
		if werr := os.WriteFile(*out, []byte(output), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "lakebench: write:", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakebench:", err)
		os.Exit(1)
	}
}
