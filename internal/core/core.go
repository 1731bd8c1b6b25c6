// Package core assembles LAKE (§4, Fig 2): the kernel-side API provider
// lakeLib, the bulk-data channel lakeShm, the user-side daemon lakeD that
// realizes accelerator APIs, the eBPF-style execution policies, and the
// in-kernel feature registry — one runtime a kernel subsystem boots once and
// programs against.
//
// Everything beneath the runtime is simulated hardware on a shared virtual
// clock (see DESIGN.md for the substitution map), but the components and the
// paths between them are the real ones: commands really serialize and cross
// a transport, lakeShm buffers really are shared memory, and policies really
// sample (remoted) NVML utilization.
package core

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/boundary"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/features"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/gpupool"
	"lakego/internal/healthplane"
	"lakego/internal/lifecycle"
	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/remoting"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// BuildVersion is stamped into lake_build_info and health-plane responses;
// override at link time with `-ldflags "-X lakego/internal/core.BuildVersion=v..."`.
var BuildVersion = "dev"

// Config parameterizes a LAKE runtime.
type Config struct {
	// GPU is the accelerator model; zero value means gpu.DefaultSpec().
	GPU gpu.Spec
	// NumDevices sizes the device pool (default 1); each device gets the
	// GPU spec unless DeviceSpecs overrides the set.
	NumDevices int
	// DeviceSpecs, when non-empty, enumerates a (possibly heterogeneous)
	// pool explicitly, overriding GPU and NumDevices.
	DeviceSpecs []gpu.Spec
	// PoolPolicy selects context placement across the pool (default
	// round-robin; irrelevant with one device).
	PoolPolicy gpupool.Policy
	// PoolSeed seeds the pool's placement PRNG, keeping fixed-seed
	// multi-device runs bit-identical.
	PoolSeed int64
	// ShmBytes sizes the lakeShm region (default shm.DefaultRegionSize,
	// the artifact's cma=128M).
	ShmBytes int64
	// Channel selects the kernel<->user command channel (default Netlink,
	// the paper's choice).
	Channel boundary.Kind
	// QueueDepth is the command channel's buffering.
	QueueDepth int
	// Faults, when non-nil, attaches a fault plane with this mix to the
	// transport and daemon: frames may be dropped, corrupted, duplicated,
	// or delayed, and the daemon may crash while serving. Setting Faults
	// also arms client resilience (a faulty channel without retries would
	// just lose calls).
	Faults *faults.Mix
	// Resilience, when non-nil, arms lakeLib's fault-tolerant call path
	// explicitly; its Hook defaults to the runtime's Supervisor.
	Resilience *remoting.Resilience
	// Supervision parameterizes the lakeD supervisor (zero value =
	// defaults). Only consulted when Faults or Resilience is set.
	Supervision SupervisorConfig
	// DisableTelemetry boots the runtime without the observability plane:
	// Telemetry() returns nil and every instrument call across the stack
	// is a no-op on a nil receiver. The zero value keeps telemetry on —
	// its hot-path cost is a handful of atomic adds (see DESIGN.md).
	DisableTelemetry bool
	// DisableFlightRecorder boots without the always-on flight recorder.
	// The recorder rides the telemetry switch: it is on whenever telemetry
	// is on (its per-event cost is a cursor fetch-add plus nine atomic
	// stores), and disabling either telemetry or this flag leaves every
	// remoted command untraced — the wire stays byte-identical to the
	// pre-recorder protocol.
	DisableFlightRecorder bool
	// FlightRecorderSize is the per-domain ring capacity in events (default
	// flightrec.DefaultRingSize = 4096).
	FlightRecorderSize int

	// NumShards, RouterPolicy and RouterSeed parameterize a sharded fleet
	// (internal/fleet): NumShards > 1 boots that many independent lakeD
	// runtimes behind a client-side router placing tenants by RouterPolicy
	// over a PRNG/ring seeded with RouterSeed. New ignores all three — a
	// single runtime is one shard; fleet.New consumes them.
	NumShards    int
	RouterPolicy gpupool.Policy
	RouterSeed   int64

	// Clock, when non-nil, is used instead of a fresh virtual clock. Each
	// fleet shard runs on its own clock — shards model independent lakeD
	// processes whose service timelines overlap in real time, so virtual
	// time is per-shard and the fleet's elapsed time is the maximum over
	// shards (the critical path), exactly as gpu.Stream timelines only
	// couple at synchronization points.
	Clock *vtime.Clock
	// Recorder, when non-nil, is wired instead of a fresh flight recorder —
	// typically a shard view (flightrec.WithShard) of a fleet-shared
	// recorder, so every shard's events land in one set of rings with shard
	// ordinals stamped on.
	Recorder *flightrec.Recorder
	// ShardLabel, when non-empty, appends a shard="<label>" pair to every
	// metric name this runtime registers, keeping per-shard series distinct
	// when a fleet merges registries into one exposition. Empty keeps every
	// name byte-identical to a standalone runtime's.
	ShardLabel string
	// ShardOrdinal namespaces lakeLib's wire sequence numbers
	// (remoting.Lib.SetShardTag) so shard journals can merge without key
	// collisions during migration. Ordinal 0 keeps the original space.
	ShardOrdinal int
}

// DefaultConfig mirrors the paper's deployment: Netlink command channel,
// 128 MiB CMA-backed shared region, A100-class GPU.
func DefaultConfig() Config {
	return Config{
		GPU:        gpu.DefaultSpec(),
		ShmBytes:   shm.DefaultRegionSize,
		Channel:    boundary.Netlink,
		QueueDepth: 64,
	}
}

// Runtime is one booted LAKE instance.
type Runtime struct {
	clock     *vtime.Clock
	pool      *gpupool.Pool
	device    *gpu.Device // pool device 0, the single-device view
	api       *cuda.API
	region    *shm.Region
	transport boundary.Channel
	daemon    *remoting.Daemon
	lib       *remoting.Lib
	store     *features.Store
	shardLbl  string
	plane     *faults.Plane
	sup       *Supervisor
	tel       *telemetry.Registry
	rec       *flightrec.Recorder

	modelsMu sync.Mutex
	models   map[string]*lifecycle.Manager

	closeOnce sync.Once
}

// New boots a runtime: creates the device, maps the shared region into both
// domains, starts lakeD and wires lakeLib to it.
func New(cfg Config) (*Runtime, error) {
	if cfg.GPU.MemoryBytes == 0 {
		cfg.GPU = gpu.DefaultSpec()
	}
	if cfg.ShmBytes <= 0 {
		cfg.ShmBytes = shm.DefaultRegionSize
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	clock := cfg.Clock
	if clock == nil {
		clock = vtime.New()
	}
	specs := cfg.DeviceSpecs
	if len(specs) == 0 {
		n := cfg.NumDevices
		if n <= 0 {
			n = 1
		}
		specs = make([]gpu.Spec, n)
		for i := range specs {
			specs[i] = cfg.GPU
		}
	}
	pool, err := gpupool.New(gpupool.Config{
		Specs:  specs,
		Policy: cfg.PoolPolicy,
		Seed:   cfg.PoolSeed,
	}, clock)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	device := pool.Device(0)
	var place cuda.PlaceFunc
	if pool.Size() > 1 {
		place = pool.Place
	}
	api := cuda.NewMultiAPI(pool.Devices(), place)
	region, err := shm.NewRegion(cfg.ShmBytes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Channel selection: boundary.Ring gets the shm-resident lock-free
	// descriptor-ring transport (payload slots carved from the region the
	// two domains already share); every Table-2 mechanism keeps the legacy
	// channel transport, byte-for-byte.
	var tr boundary.Channel
	if cfg.Channel == boundary.Ring {
		ring, err := boundary.NewRingTransport(clock, region, cfg.QueueDepth, boundary.DefaultSlotBytes)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		tr = ring
	} else {
		tr = boundary.NewTransport(cfg.Channel, clock, cfg.QueueDepth)
	}
	daemon := remoting.NewDaemon(api, region, tr)
	lib := remoting.NewLib(tr, daemon, region)
	lib.SetShardTag(cfg.ShardOrdinal)
	rt := &Runtime{
		clock:     clock,
		pool:      pool,
		device:    device,
		api:       api,
		region:    region,
		transport: tr,
		daemon:    daemon,
		lib:       lib,
		store:     features.NewStore(),
		shardLbl:  cfg.ShardLabel,
	}
	if !cfg.DisableTelemetry {
		rt.tel = telemetry.NewRegistry()
		rt.wireTelemetry(cfg)
		boot := time.Now()
		rt.tel.Gauge(metricName(cfg.ShardLabel, "lake_build_info",
			`version="`+BuildVersion+`"`, `go_version="`+goruntime.Version()+`"`),
			"Build metadata carried in labels; the value is always 1.").Set(1)
		rt.tel.GaugeFunc(metricName(cfg.ShardLabel, "lake_uptime_vns"),
			"Virtual nanoseconds elapsed on this runtime's clock.",
			func() int64 { return int64(clock.Now()) })
		rt.tel.GaugeFunc(metricName(cfg.ShardLabel, "lake_uptime_seconds"),
			"Wall-clock seconds since the runtime booted.",
			func() int64 { return int64(time.Since(boot) / time.Second) })
	}
	if !cfg.DisableTelemetry && !cfg.DisableFlightRecorder {
		if cfg.Recorder != nil {
			rt.rec = cfg.Recorder
		} else {
			rt.rec = flightrec.New(clock, cfg.FlightRecorderSize)
		}
		rt.rec.SetFramePeeker(remoting.PeekFrame)
		rt.rec.SetEnabled(true)
		tr.SetFlightRecorder(rt.rec)
		lib.SetFlightRecorder(rt.rec)
		daemon.SetFlightRecorder(rt.rec)
		pool.SetFlightRecorder(rt.rec)
		api.SetFlightRecorder(rt.rec)
	}
	if cfg.Faults != nil {
		rt.plane = faults.NewPlane(*cfg.Faults, clock)
		tr.InjectFaults(rt.plane)
		daemon.InjectFaults(rt.plane)
	}
	if cfg.Faults != nil || cfg.Resilience != nil {
		rt.sup = NewSupervisor(clock, daemon, lib, cfg.Supervision)
		rt.sup.SetFlightRecorder(rt.rec)
		if rt.tel != nil {
			rt.sup.SetTelemetry(SupervisorTelemetry{
				TransitionsTotal: rt.tel.Counter(metricName(rt.shardLbl, "lake_supervisor_transitions_total"), "Supervisor state transitions recorded."),
				Restarts:         rt.tel.Counter(metricName(rt.shardLbl, "lake_supervisor_restarts_total"), "lakeD relaunches driven by the supervisor."),
				State:            rt.tel.Gauge(metricName(rt.shardLbl, "lake_supervisor_state"), "Current lakeD state (0=Healthy 1=Suspected 2=Dead 3=Restarting 4=ReAttached)."),
			})
		}
		res := remoting.DefaultResilience()
		if cfg.Resilience != nil {
			res = *cfg.Resilience
		}
		if res.Hook == nil {
			res.Hook = rt.sup
		}
		lib.EnableResilience(res)
	}
	if r := lib.CuInit(); r != cuda.Success {
		return nil, fmt.Errorf("core: remote cuInit failed: %s", r)
	}
	return rt, nil
}

// metricName composes one series name from its family and label pairs,
// dropping empty pairs and appending the runtime's shard pair when
// configured. All label construction in wireTelemetry goes through here:
// ad-hoc `name+lbl` concatenation is what let per-shard pooled series
// collide in a merged fleet exposition (two shards' `{device="0"}` were the
// same string).
func metricName(shardLabel, family string, pairs ...string) string {
	var parts []string
	for _, p := range pairs {
		if p != "" {
			parts = append(parts, p)
		}
	}
	if shardLabel != "" {
		parts = append(parts, `shard="`+shardLabel+`"`)
	}
	if len(parts) == 0 {
		return family
	}
	return family + "{" + strings.Join(parts, ",") + "}"
}

// wireTelemetry attaches registry-backed instruments to every layer of the
// freshly built runtime. Called once from New, before any traffic, so each
// SetTelemetry is a plain construction-time assignment.
func (r *Runtime) wireTelemetry(cfg Config) {
	tel := r.tel
	name := func(family string, pairs ...string) string { return metricName(r.shardLbl, family, pairs...) }
	ch := `channel="` + cfg.Channel.String() + `"`
	r.transport.SetTelemetry(boundary.TransportTelemetry{
		Sent:      tel.Counter(name("lake_boundary_sent_total", ch), "Kernel->user frames accepted into the command channel."),
		Received:  tel.Counter(name("lake_boundary_received_total", ch), "User->kernel frames delivered to the kernel side."),
		QueueFull: tel.Counter(name("lake_boundary_queue_full_total", ch), "Sends rejected by a full channel queue."),
		RoundTrip: tel.Histogram(name("lake_boundary_roundtrip_ns", ch), "Modeled per-command round-trip cost (virtual ns).", telemetry.DefaultLatencyBuckets()),
	})
	for i, dev := range r.pool.Devices() {
		// With one device (and no shard label) the metric names stay exactly
		// as they always were; a real pool labels each device's instrument
		// set by ordinal, and a fleet shard adds its shard pair on top.
		dv := ""
		if r.pool.Size() > 1 {
			dv = fmt.Sprintf(`device="%d"`, i)
		}
		dev.SetTelemetry(gpu.Telemetry{
			Launches:   tel.Counter(name("lake_gpu_launches_total", dv), "Kernels executed on the device model."),
			ExecTime:   tel.Histogram(name("lake_gpu_exec_ns", dv), "Per-operation modeled execution cost (virtual ns), excluding queueing.", telemetry.DefaultLatencyBuckets()),
			QueueDelay: tel.Histogram(name("lake_gpu_queue_delay_ns", dv), "Per-operation contention delay (virtual ns) waiting for the device.", telemetry.DefaultLatencyBuckets()),
			CopyTime:   tel.Histogram(name("lake_gpu_copy_ns", dv), "Host<->device DMA durations (virtual ns) — copy-engine occupancy.", telemetry.DefaultLatencyBuckets()),
			CopyBytes:  tel.Counter(name("lake_gpu_copy_bytes_total", dv), "Bytes moved across the modeled PCIe link."),
		})
	}
	r.lib.SetTelemetry(remoting.LibTelemetry{
		Calls:            tel.Counter(name("lake_lib_calls_total"), "Completed remoted invocations."),
		CallLatency:      tel.Histogram(name("lake_lib_call_latency_ns"), "End-to-end remoted call latency (virtual ns), including backoff.", telemetry.DefaultLatencyBuckets()),
		Retries:          tel.Counter(name("lake_lib_retries_total"), "Resilient-exchange retry attempts."),
		CorruptResponses: tel.Counter(name("lake_lib_corrupt_responses_total"), "Responses dropped for CRC/decode failure."),
		StaleResponses:   tel.Counter(name("lake_lib_stale_responses_total"), "Responses discarded for a stale sequence number."),
		Recoveries:       tel.Counter(name("lake_lib_recoveries_total"), "Calls that succeeded after at least one retry."),
		DeadlineExceeded: tel.Counter(name("lake_lib_deadline_exceeded_total"), "Calls abandoned at the retry deadline."),
		DaemonDead:       tel.Counter(name("lake_lib_daemon_dead_total"), "Calls refused because lakeD was declared dead."),
	})
	r.daemon.SetTelemetry(remoting.DaemonTelemetry{
		Handled:       tel.Counter(name("lake_daemon_handled_total"), "Responses lakeD put on the channel."),
		Executed:      tel.Counter(name("lake_daemon_executed_total"), "Commands whose handler actually ran."),
		Redelivered:   tel.Counter(name("lake_daemon_redelivered_total"), "Commands answered from the exactly-once journal."),
		CorruptFrames: tel.Counter(name("lake_daemon_corrupt_frames_total"), "Undecodable command frames lakeD dropped."),
		GPUUtil:       tel.Gauge(name("lake_nvml_gpu_util"), "Last NVML GPU utilization sample served (percent)."),
		MemUtil:       tel.Gauge(name("lake_nvml_mem_util"), "Last NVML memory utilization sample served (percent)."),
	})
}

// Telemetry returns the runtime's metrics registry, or nil when the
// runtime was booted with Config.DisableTelemetry (nil is safe: every
// instrument it would hand out degrades to a no-op).
func (r *Runtime) Telemetry() *telemetry.Registry { return r.tel }

// FlightRecorder returns the always-on flight recorder, or nil when the
// runtime was booted with DisableTelemetry or DisableFlightRecorder (nil is
// safe: every recorder method degrades to a no-op).
func (r *Runtime) FlightRecorder() *flightrec.Recorder { return r.rec }

// Clock returns the runtime's virtual clock.
func (r *Runtime) Clock() *vtime.Clock { return r.clock }

// Device returns the accelerator model (for experiment instrumentation;
// kernel-side code should only touch it through Lib). On a multi-device
// runtime this is pool device 0.
func (r *Runtime) Device() *gpu.Device { return r.device }

// Pool returns the device pool (size 1 on a default runtime). It also
// satisfies batcher.PoolRuntime, letting the batcher steer flushes across
// devices.
func (r *Runtime) Pool() *gpupool.Pool { return r.pool }

// Lib returns lakeLib, the kernel-side accelerator API stubs.
func (r *Runtime) Lib() *remoting.Lib { return r.lib }

// Daemon returns lakeD, for registering high-level APIs (§4.4).
func (r *Runtime) Daemon() *remoting.Daemon { return r.daemon }

// Region returns the lakeShm shared region.
func (r *Runtime) Region() *shm.Region { return r.region }

// Transport returns the boundary channel the runtime was booted on (the
// legacy *boundary.Transport or a *boundary.RingTransport, per
// Config.Channel); type-assert for implementation-specific stats.
func (r *Runtime) Transport() boundary.Channel { return r.transport }

// Features returns the in-kernel feature registry store (§5).
func (r *Runtime) Features() *features.Store { return r.store }

// FaultPlane returns the attached fault-injection plane, or nil when the
// runtime was booted without Config.Faults.
func (r *Runtime) FaultPlane() *faults.Plane { return r.plane }

// Supervisor returns the lakeD supervisor, or nil when neither faults nor
// resilience were configured.
func (r *Runtime) Supervisor() *Supervisor { return r.sup }

// RegisterKernel installs a device kernel into the user-domain vendor
// library so remoted cuModuleGetFunction can resolve it.
func (r *Runtime) RegisterKernel(k *cuda.Kernel) { r.api.RegisterKernel(k) }

// NewAdaptivePolicy builds a Fig 3 policy whose utilization source is the
// LAKE-remoted NVML query, exactly as the paper's pseudocode does.
func (r *Runtime) NewAdaptivePolicy(cfg policy.AdaptiveConfig) *policy.Adaptive {
	p := policy.NewAdaptive(cfg, r.clock, func() int {
		g, _, res := r.lib.NvmlGetUtilization()
		if res != cuda.Success {
			return 100 // treat a failed query as contended: stay on CPU
		}
		return g
	})
	if cfg.UseObservedLatency && r.tel != nil {
		// Feed the policy the shared per-item latency series the batcher
		// (and offload runner) populate, closing the Fig 3 loop on
		// measured signal instead of the static batch threshold.
		p.SetLatencySources(
			r.tel.Histogram(metricName(r.shardLbl, telemetry.MetricGPUItemLatency), "Observed per-item GPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets()),
			r.tel.Histogram(metricName(r.shardLbl, telemetry.MetricCPUItemLatency), "Observed per-item CPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets()),
		)
	}
	return p
}

// NewLifecycle boots the online model-lifecycle manager for one model on
// this runtime: a versioned registry seeded with base, the in-daemon
// online trainer, and the drift detector, wired into the runtime's flight
// recorder (lifecycle domain) and telemetry (model="..."-labeled swap /
// retrain / drift series plus the serving-version gauge). Attach the
// predictor's SwapNet and feed Observe from the completion path.
func (r *Runtime) NewLifecycle(cfg lifecycle.Config, base *nn.Network) (*lifecycle.Manager, error) {
	m, err := lifecycle.NewManager(r.clock, cfg, base)
	if err != nil {
		return nil, err
	}
	m.SetFlightRecorder(r.rec)
	if r.tel != nil {
		lbl := `model="` + cfg.Model + `"`
		name := func(family string) string { return metricName(r.shardLbl, family, lbl) }
		m.SetTelemetry(lifecycle.Telemetry{
			Registrations:   r.tel.Counter(name("lake_model_registrations_total"), "Model versions added to the registry."),
			Swaps:           r.tel.Counter(name("lake_model_swaps_total"), "Serving-slot flips (promotions, demotions, rollbacks)."),
			RetrainSteps:    r.tel.Counter(name("lake_model_retrain_steps_total"), "Online SGD minibatch steps run in lakeD."),
			RetrainSamples:  r.tel.Counter(name("lake_model_retrain_samples_total"), "Feedback samples consumed by online retraining."),
			DriftAlarms:     r.tel.Counter(name("lake_model_drift_alarms_total"), "Drift windows whose live accuracy fell below the pinned baseline."),
			Demotions:       r.tel.Counter(name("lake_model_demotions_total"), "Drift-driven rollbacks to the previous serving version."),
			FallbackEnters:  r.tel.Counter(name("lake_model_fallback_total"), "Times the model went unhealthy and routing fell back to the CPU/heuristic path."),
			FeedbackDropped: r.tel.Counter(name("lake_model_feedback_dropped_total"), "Outcomes dropped by the bounded feedback channel."),
			ServingVersion:  r.tel.Gauge(name("lake_model_serving_version"), "Sequence number of the serving model version."),
			ShadowAccuracy:  r.tel.Gauge(name("lake_model_shadow_accuracy_permille"), "Candidate accuracy over the last shadow window (per-mille)."),
		})
	}
	r.modelsMu.Lock()
	if r.models == nil {
		r.models = make(map[string]*lifecycle.Manager)
	}
	r.models[cfg.Model] = m
	r.modelsMu.Unlock()
	return m, nil
}

// ModelLifecycle returns the lifecycle manager registered for a model
// label, or nil.
func (r *Runtime) ModelLifecycle(model string) *lifecycle.Manager {
	r.modelsMu.Lock()
	defer r.modelsMu.Unlock()
	return r.models[model]
}

// ModelLifecycles lists every lifecycle manager on this runtime in label
// order.
func (r *Runtime) ModelLifecycles() []*lifecycle.Manager {
	r.modelsMu.Lock()
	defer r.modelsMu.Unlock()
	labels := make([]string, 0, len(r.models))
	for l := range r.models {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]*lifecycle.Manager, 0, len(labels))
	for _, l := range labels {
		out = append(out, r.models[l])
	}
	return out
}

// NewHealthPlane boots the live health plane over this runtime: the
// non-destructive flight-recorder tailer, the rolling SLO burn-rate engine,
// and anomaly-triggered black-box capture, pre-wired to the runtime's clock,
// recorder, telemetry registry, lifecycle managers, and lakeD supervisor.
// Serve the plane's Handler() routes (healthplane.Paths) from the host
// process or drive Poll from its control loop. On a single runtime the
// shard probe reports one shard whose readiness tracks the supervisor (a
// runtime booted without faults/resilience is trivially ready); completion
// outstanding is unknown here, so the stall watchdog only arms on fleets.
func (r *Runtime) NewHealthPlane(cfg healthplane.Config) *healthplane.Plane {
	if cfg.Version == "" {
		cfg.Version = BuildVersion
	}
	p := healthplane.New(cfg)
	p.SetClock(r.clock.Now)
	p.SetRecorder(r.rec)
	if r.tel != nil {
		p.SetTelemetrySource(r.tel.Snapshot)
	}
	p.SetModelSource(r.ModelLifecycles)
	p.SetShardProbe(func() []healthplane.ShardHealth {
		sh := healthplane.ShardHealth{
			Ordinal: 0,
			State:   "Healthy",
			Ready:   true,
			Handled: r.daemon.Handled(),
		}
		if r.sup != nil {
			st := r.sup.State()
			sh.State = st.String()
			sh.Ready = st == StateHealthy || st == StateReAttached
		}
		return []healthplane.ShardHealth{sh}
	})
	return p
}

// NewBatcher creates the lakeD cross-client inference batching subsystem
// on this runtime: clients submit independent inference requests and the
// batcher coalesces them into dynamically batched GPU launches (or the CPU
// fallback, per the configured policy). Register models with
// Batcher.RegisterModel and hand out Batcher.Client handles.
func (r *Runtime) NewBatcher(cfg batcher.Config) *batcher.Batcher {
	b := batcher.New(r, cfg)
	b.SetFlightRecorder(r.rec)
	if r.tel != nil {
		name := func(family string) string { return metricName(r.shardLbl, family) }
		b.SetTelemetry(batcher.Telemetry{
			QueueDepth:     r.tel.Gauge(name("lake_batcher_queue_depth"), "Inference items currently queued across all models."),
			FlushItems:     r.tel.Histogram(name("lake_batcher_flush_items"), "Items per formed batch.", telemetry.CountBuckets()),
			Rejects:        r.tel.Counter(name("lake_batcher_rejects_total"), "Submissions rejected by backpressure."),
			QueueDelay:     r.tel.Histogram(name("lake_batcher_queue_delay_ns"), "Per-request enqueue-to-formation wait (virtual ns).", telemetry.DefaultLatencyBuckets()),
			StreamWait:     r.tel.Histogram(name("lake_batcher_stream_wait_ns"), "Per-flush formation-to-flush wait behind the model's previous flush (virtual ns).", telemetry.DefaultLatencyBuckets()),
			GPUItemLatency: r.tel.Histogram(metricName(r.shardLbl, telemetry.MetricGPUItemLatency), "Observed per-item GPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets()),
			CPUItemLatency: r.tel.Histogram(metricName(r.shardLbl, telemetry.MetricCPUItemLatency), "Observed per-item CPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets()),
		})
	}
	return b
}

// InstallVMPolicy verifies a bytecode policy against the Fig 3 helper set
// (batch size from the returned policy itself, utilization from remoted
// NVML) and returns it ready for Decide calls.
func (r *Runtime) InstallVMPolicy(prog policy.Program, window int) (*policy.VMPolicy, error) {
	var vp *policy.VMPolicy
	helpers := policy.Figure3Helpers(
		func() int64 {
			if vp == nil {
				return 0
			}
			return vp.BatchSize()
		},
		func() int64 {
			g, _, res := r.lib.NvmlGetUtilization()
			if res != cuda.Success {
				return 100
			}
			return int64(g)
		},
		window,
	)
	p, err := policy.NewVMPolicy(prog, helpers)
	if err != nil {
		return nil, err
	}
	vp = p
	return vp, nil
}

// Stats summarizes runtime activity for experiment reports.
type Stats struct {
	RemotedCalls   int64
	ChannelTime    time.Duration
	DaemonHandled  int64
	KernelLaunches int64
	ShmUsed        int64
	VirtualTime    time.Duration
	// Fault/recovery counters (zero on a runtime without faults).
	DaemonExecuted    int64
	DaemonRedelivered int64
	DaemonRestarts    int64
}

// Stats snapshots the runtime counters.
func (r *Runtime) Stats() Stats {
	calls, channel := r.lib.Stats()
	var launches int64
	for _, dev := range r.pool.Devices() {
		launches += dev.Launches()
	}
	return Stats{
		RemotedCalls:      calls,
		ChannelTime:       channel,
		DaemonHandled:     r.daemon.Handled(),
		KernelLaunches:    launches,
		ShmUsed:           r.region.Used(),
		VirtualTime:       r.clock.Now(),
		DaemonExecuted:    r.daemon.Executed(),
		DaemonRedelivered: r.daemon.Redelivered(),
		DaemonRestarts:    r.daemon.Restarts(),
	}
}

// Close shuts the runtime down: it closes the boundary channel, stops
// lakeD, and then releases the lakeShm region. It is idempotent. Callers
// must have finished every call on the runtime first: buffers staged in the
// region are unusable afterwards.
func (r *Runtime) Close() {
	r.closeOnce.Do(func() {
		r.transport.Close()
		r.daemon.Stop()
		r.region.Close()
	})
}
