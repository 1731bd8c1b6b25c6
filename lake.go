// Package lake is the public API of LAKE, a framework for exposing
// ML-focused hardware acceleration in kernel space, reproduced in Go from
// "Towards a Machine Learning-Assisted Kernel with LAKE" (ASPLOS 2023).
//
// A Runtime wires together the three components of Fig 2 — lakeLib (the
// kernel-side API provider), lakeShm (the zero-copy bulk-data channel) and
// lakeD (the user-space daemon realizing accelerator APIs) — plus the
// Fig 3 execution-policy framework and the §5 in-kernel feature registry.
// Because Go cannot run in kernel space, the kernel/user boundary and the
// accelerator are high-fidelity simulations on a virtual clock; every
// protocol layer above them (command serialization, shared-memory handoff,
// policy decisions, feature capture) is the real code path.
//
// Quick start:
//
//	rt, err := lake.New(lake.DefaultConfig())
//	if err != nil { ... }
//	defer rt.Close()
//	rt.RegisterKernel(lake.VecAddKernel())
//	lib := rt.Lib()                  // lakeLib: remoted CUDA driver API
//	ctx, _ := lib.CuCtxCreate("app")
//	buf, _ := rt.Region().Alloc(n)   // lakeShm: zero-copy staging
//	...
//
// The package names only what programs outside this module spell out:
// configuration types and constants, constructors, and the result types
// they inspect. Everything else (lakeLib, lakeShm buffers, the batcher, the
// flight recorder, the health plane) is reached through Runtime and Fleet
// methods. Per-call stage timelines come from the always-on flight
// recorder: StitchFlightDump rebuilds them from Runtime.FlightRecorder()
// snapshots, and cmd/laketrace does the same for a dump file.
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package lake

import (
	"lakego/internal/batcher"
	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/faults"
	"lakego/internal/features"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
	"lakego/internal/gpupool"
	"lakego/internal/healthplane"
	"lakego/internal/lifecycle"
	"lakego/internal/policy"
	"lakego/internal/remoting"
)

// Runtime is one booted LAKE instance; see core.Runtime for method docs.
type Runtime = core.Runtime

// Config parameterizes New.
type Config = core.Config

// Stats is a snapshot of runtime activity counters.
type Stats = core.Stats

// New boots a LAKE runtime.
func New(cfg Config) (*Runtime, error) { return core.New(cfg) }

// DefaultConfig mirrors the paper's deployment: Netlink command channel,
// 128 MiB shared region, A100-class accelerator.
func DefaultConfig() Config { return core.DefaultConfig() }

type (
	// Result is a CUDA-style status code returned by remoted APIs.
	Result = cuda.Result
	// ChannelKind selects the kernel<->user command channel.
	ChannelKind = boundary.Kind
	// FeatureSchema describes a feature registry's vectors (§5, Table 1).
	FeatureSchema = features.Schema
)

// BatcherModel describes one batchable model for Runtime.NewBatcher's
// batcher (internal/batcher): independent requests from many clients
// coalesce into batched GPU launches inside lakeD.
type BatcherModel = batcher.ModelConfig

// DefaultBatcherConfig returns the batching defaults (32-item target
// batches, 100µs max-wait flush deadline).
func DefaultBatcherConfig() batcher.Config { return batcher.DefaultConfig() }

// ErrBackpressure is the batcher's reject-with-retry result.
var ErrBackpressure = batcher.ErrBackpressure

// PoolPolicy selects the placement policy of the multi-GPU device pool
// (Config.NumDevices, Config.PoolPolicy) and of the fleet router
// (Config.RouterPolicy).
type PoolPolicy = gpupool.Policy

// Placement policies for PoolPolicy.
const (
	// PoolRoundRobin cycles context placement across devices.
	PoolRoundRobin = gpupool.RoundRobin
	// PoolConsistentHash places each client on the member owning its name
	// on a seeded hash ring; the fleet router reuses it for tenant->shard
	// placement.
	PoolConsistentHash = gpupool.ConsistentHash
	// PoolContentionAware places on the least NVML-utilized device,
	// breaking ties by backlog then seeded PRNG (Fig 3 per device).
	PoolContentionAware = gpupool.ContentionAware
)

// ParsePoolPolicy parses a -pool-policy flag value ("round-robin",
// "least-outstanding", "contention-aware", or the short forms rr/lo/ca).
func ParsePoolPolicy(s string) (PoolPolicy, error) { return gpupool.ParsePolicy(s) }

// Online model-lifecycle types (internal/lifecycle); boot one manager per
// model with Runtime.NewLifecycle.
type (
	// ModelLifecycleConfig parameterizes Runtime.NewLifecycle.
	ModelLifecycleConfig = lifecycle.Config
	// ModelOutcome is one observed ground-truth feedback record.
	ModelOutcome = lifecycle.Outcome
)

// DefaultLifecycleConfig returns the shipping lifecycle parameters for a
// model label.
func DefaultLifecycleConfig(model string) ModelLifecycleConfig {
	return lifecycle.DefaultConfig(model)
}

// Flight-recorder types (internal/flightrec): every telemetry-enabled
// runtime carries an always-on flight recorder, reachable via
// Runtime.FlightRecorder(); its snapshots stitch back into per-call
// cross-domain timelines (see DESIGN.md).
type (
	// FlightDump is one recorder snapshot, the crash artifact.
	FlightDump = flightrec.Dump
	// FlightTimeline is one remoted call stitched across domains.
	FlightTimeline = flightrec.Timeline
)

// StitchFlightDump rebuilds per-call cross-domain timelines from a dump.
func StitchFlightDump(d *FlightDump) *flightrec.StitchResult { return flightrec.Stitch(d) }

// Live health plane types (internal/healthplane): boot one with
// Runtime.NewHealthPlane or Fleet.NewHealthPlane and serve
// Handler() on the routes in HealthPlanePaths — laked does.
type (
	// HealthPlaneConfig tunes tick granularity, burn-rate windows and
	// thresholds, objectives, and the incident-ring bound.
	HealthPlaneConfig = healthplane.Config
	// SLOObjective is one latency objective the burn engine tracks.
	SLOObjective = healthplane.Objective
	// SLOSnapshot is the /slo.json payload.
	SLOSnapshot = healthplane.SLOSnapshot
)

// HealthPlanePaths lists the HTTP routes the health plane's Handler serves.
var HealthPlanePaths = healthplane.Paths

// Fault-injection and recovery types. Set Config.Faults to attach a
// deterministic fault plane to a runtime's command channel and daemon;
// resilience (retry + backoff + recovery) arms automatically, with the
// runtime's Supervisor as the recovery hook.
type (
	// FaultMix is the seeded fault configuration (drop/corrupt/duplicate/
	// delay rates plus daemon-crash probability).
	FaultMix = faults.Mix
	// FaultStats counts injected faults.
	FaultStats = faults.Stats
	// SupervisorConfig parameterizes supervision thresholds.
	SupervisorConfig = core.SupervisorConfig
	// ResilienceStats counts client-side fault handling events.
	ResilienceStats = remoting.ResilienceStats
)

// ErrNotReady (CUDA_ERROR_SYSTEM_NOT_READY) is what remoted stubs return
// when lakeD is declared dead: route to the CPU fallback.
const ErrNotReady = cuda.ErrNotReady

// AdaptiveConfig parameterizes the Fig 3 contention/profitability policy
// (Runtime.NewAdaptivePolicy).
type AdaptiveConfig = policy.AdaptiveConfig

// DefaultAdaptiveConfig returns the evaluation's policy constants.
func DefaultAdaptiveConfig() AdaptiveConfig { return policy.DefaultAdaptiveConfig() }

// Figure3Program compiles the paper's Fig 3 policy to bytecode for
// Runtime.InstallVMPolicy.
func Figure3Program(execThreshold, batchThreshold int64) policy.Program {
	return policy.Figure3Program(execThreshold, batchThreshold)
}

// Commonly used constants, re-exported for downstream callers.
const (
	// Success is the zero CUDA result.
	Success = cuda.Success
	// UseCPU and UseGPU are policy decisions.
	UseCPU = policy.UseCPU
	UseGPU = policy.UseGPU
	// NullTS retrieves/truncates the whole feature window.
	NullTS = features.NullTS
	// Netlink is the default command channel (the paper's choice, §6).
	Netlink = boundary.Netlink
	// Ring is the shm-resident lock-free descriptor-ring channel: the
	// zero-allocation transport behind Config.Channel = Ring.
	Ring = boundary.Ring
)

// VecAddKernel returns the demonstration vector-add device kernel.
func VecAddKernel() *cuda.Kernel { return cuda.VecAddKernel() }

// Sharded multi-daemon fleet (internal/fleet): N independent lakeD
// runtimes behind a client-side router with sticky tenant placement,
// layered admission, and drain/kill journal migration. Boot one with
// NewFleet; Config.NumShards, Config.RouterPolicy and Config.RouterSeed
// parameterize it (New ignores them — a single runtime is one shard).
type (
	// Fleet is a booted shard set plus its router.
	Fleet = fleet.Fleet
	// FleetConfig parameterizes NewFleet.
	FleetConfig = fleet.Config
	// FleetMigration reports one completed drain or kill.
	FleetMigration = fleet.Migration
	// FleetPending is one in-flight routed request.
	FleetPending = fleet.Pending
	// FleetTenantConfig sets a tenant's fair-share weight and cap.
	FleetTenantConfig = fleet.TenantConfig
)

// ShardDead is the router's state for a shard migrated away and gone.
const ShardDead = fleet.Dead

// NewFleet boots cfg.Runtime.NumShards independent lakeD runtimes — one
// virtual clock each, shards model independent processes — behind the
// client-side router.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }
