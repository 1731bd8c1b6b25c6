package policy

import (
	"sync"
	"time"

	"lakego/internal/vtime"
)

// Decision is where a policy routes one invocation.
type Decision int

// Policy outcomes: run on the CPU fallback or offload to the accelerator.
const (
	UseCPU Decision = iota
	UseGPU
)

func (d Decision) String() string {
	if d == UseGPU {
		return "GPU"
	}
	return "CPU"
}

// Func is a native Go policy: given the pending batch size, pick an
// execution target. It corresponds to the paper's policy callback invoked
// "automatically by the kernel during the application's execution".
type Func func(batchSize int) Decision

// MovingAverage is the windowed moving average Fig 3's policy applies to
// GPU utilization samples. The zero value is unusable; construct with
// NewMovingAverage. Safe for concurrent use.
type MovingAverage struct {
	mu      sync.Mutex
	samples []float64
	next    int
	n       int
	sum     float64
}

// NewMovingAverage creates an average over the last window samples.
func NewMovingAverage(window int) *MovingAverage {
	if window <= 0 {
		window = 1
	}
	return &MovingAverage{samples: make([]float64, window)}
}

// Add incorporates a sample and returns the updated average.
func (m *MovingAverage) Add(v float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == len(m.samples) {
		m.sum -= m.samples[m.next]
	} else {
		m.n++
	}
	m.samples[m.next] = v
	m.sum += v
	m.next = (m.next + 1) % len(m.samples)
	return m.sum / float64(m.n)
}

// Value returns the current average (0 with no samples).
func (m *MovingAverage) Value() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// LatencySource exposes observed latency percentiles in virtual time.
// *telemetry.Histogram satisfies it (the interface lives here so policy
// does not import the telemetry plane it is fed by).
type LatencySource interface {
	// QuantileDuration estimates the q-quantile of observed latencies.
	QuantileDuration(q float64) time.Duration
	// Count reports how many observations back the estimate.
	Count() int64
}

// AdaptiveConfig parameterizes the Fig 3 policy.
type AdaptiveConfig struct {
	// CheckInterval rate-limits utilization queries ("if ...5 ms elapsed
	// since last check...").
	CheckInterval time.Duration
	// UtilThreshold is exec_threshold: above this moving-average GPU
	// utilization (percent), the kernel backs off to the CPU.
	UtilThreshold int
	// BatchThreshold is batch_threshold: below this batch size the GPU is
	// not performance profitable and the CPU is used.
	BatchThreshold int
	// Window is the moving-average window in samples.
	Window int

	// UseObservedLatency opts into telemetry-fed profitability: once both
	// latency sources (SetLatencySources) hold at least MinSamples
	// observations, the static BatchThreshold gate is replaced by a direct
	// comparison of observed per-item GPU vs CPU latency at
	// LatencyQuantile. The contention gate (UtilThreshold) always applies.
	UseObservedLatency bool
	// LatencyQuantile is the compared percentile. Default 0.5 (median).
	LatencyQuantile float64
	// MinSamples is the per-source observation floor below which the
	// policy falls back to BatchThreshold. Default 16.
	MinSamples int64
}

// DefaultAdaptiveConfig mirrors the constants the evaluation uses.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		CheckInterval:  5 * time.Millisecond,
		UtilThreshold:  40,
		BatchThreshold: 8,
		Window:         8,
	}
}

// Adaptive is the Fig 3 cu_policy: it rate-limits queries of GPU
// utilization, keeps a moving average, and permits offload only when the
// accelerator is uncontended and the batch is large enough to be
// profitable. Safe for concurrent use.
type Adaptive struct {
	cfg   AdaptiveConfig
	clock *vtime.Clock
	query func() int // GPU utilization source, e.g. remoted NVML

	mu        sync.Mutex
	avg       *MovingAverage
	lastCheck time.Duration
	checked   bool

	gpuLat, cpuLat LatencySource
}

// NewAdaptive builds the policy. query is invoked at most once per
// CheckInterval; between checks the last moving average is reused.
func NewAdaptive(cfg AdaptiveConfig, clock *vtime.Clock, query func() int) *Adaptive {
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 5 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.LatencyQuantile <= 0 || cfg.LatencyQuantile > 1 {
		cfg.LatencyQuantile = 0.5
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 16
	}
	return &Adaptive{cfg: cfg, clock: clock, query: query, avg: NewMovingAverage(cfg.Window)}
}

// SetLatencySources feeds the policy observed per-item latency series for
// each path (typically the runtime's shared telemetry histograms). Only
// consulted when AdaptiveConfig.UseObservedLatency is set.
func (a *Adaptive) SetLatencySources(gpu, cpu LatencySource) {
	a.mu.Lock()
	a.gpuLat, a.cpuLat = gpu, cpu
	a.mu.Unlock()
}

// Decide implements Func.
func (a *Adaptive) Decide(batchSize int) Decision {
	a.mu.Lock()
	now := a.clock.Now()
	if !a.checked || now-a.lastCheck >= a.cfg.CheckInterval {
		a.lastCheck = now
		a.checked = true
		a.mu.Unlock()
		u := a.query() // may itself be a remoted call; don't hold the lock
		a.mu.Lock()
		a.avg.Add(float64(u))
	}
	execRate := a.avg.Value()
	gpuLat, cpuLat := a.gpuLat, a.cpuLat
	a.mu.Unlock()

	if execRate >= float64(a.cfg.UtilThreshold) {
		return UseCPU // contended: back off regardless of profitability
	}
	if a.cfg.UseObservedLatency && gpuLat != nil && cpuLat != nil &&
		gpuLat.Count() >= a.cfg.MinSamples && cpuLat.Count() >= a.cfg.MinSamples {
		// Fig 3's crossover on measured signal: offload when the observed
		// per-item GPU latency beats the CPU path at the chosen quantile.
		if gpuLat.QuantileDuration(a.cfg.LatencyQuantile) <= cpuLat.QuantileDuration(a.cfg.LatencyQuantile) {
			return UseGPU
		}
		return UseCPU
	}
	if batchSize >= a.cfg.BatchThreshold {
		return UseGPU
	}
	return UseCPU
}

// Utilization returns the policy's current moving-average view of GPU
// utilization (percent).
func (a *Adaptive) Utilization() float64 { return a.avg.Value() }

// Helper numbers for the bytecode form of the Fig 3 policy.
const (
	HelperGetBatchSize int64 = 1
	HelperGetGPUUtil   int64 = 2
	HelperMovAvg       int64 = 3
)

// Figure3Helpers builds the helper set for Figure3Program. getUtil queries
// device utilization (percent); the mov_avg helper keeps per-instance state
// with the given window.
func Figure3Helpers(getBatch func() int64, getUtil func() int64, window int) HelperSet {
	avg := NewMovingAverage(window)
	return HelperSet{
		HelperGetBatchSize: func([5]int64) int64 { return getBatch() },
		HelperGetGPUUtil:   func([5]int64) int64 { return getUtil() },
		HelperMovAvg:       func(args [5]int64) int64 { return int64(avg.Add(float64(args[0]))) },
	}
}

// Figure3Program returns the paper's Fig 3 policy compiled to VM bytecode:
//
//	util      = get_gpu_util()
//	exec_rate = mov_avg(util)
//	batch_sz  = get_batch_size()
//	if exec_rate < exec_threshold && batch_sz >= batch_threshold:
//	    return 1  // dev_func: offload
//	return 0      // cpu_func: fall back
func Figure3Program(execThreshold, batchThreshold int64) Program {
	return Program{
		{Op: OpCall, Imm: HelperGetGPUUtil},                 // 0: r0 = util
		{Op: OpMov, Dst: 1, Src: 0},                         // 1: r1 = util (helper arg)
		{Op: OpCall, Imm: HelperMovAvg},                     // 2: r0 = mov_avg(util)
		{Op: OpMov, Dst: 6, Src: 0},                         // 3: r6 = exec_rate
		{Op: OpCall, Imm: HelperGetBatchSize},               // 4: r0 = batch_sz
		{Op: OpMov, Dst: 7, Src: 0},                         // 5: r7 = batch_sz
		{Op: OpJgeImm, Dst: 6, Imm: execThreshold, Off: 3},  // 6: contended -> cpu
		{Op: OpJltImm, Dst: 7, Imm: batchThreshold, Off: 2}, // 7: small batch -> cpu
		{Op: OpMovImm, Dst: 0, Imm: 1},                      // 8: r0 = UseGPU
		{Op: OpExit},                                        // 9
		{Op: OpMovImm, Dst: 0, Imm: 0},                      // 10: r0 = UseCPU
		{Op: OpExit},                                        // 11
	}
}

// VMPolicy wraps a verified program + helpers as a policy Func. Verification
// happens once at construction; Decide runs the pre-verified bytecode.
type VMPolicy struct {
	prog    Program
	helpers HelperSet
	batch   int64
	mu      sync.Mutex
}

// NewVMPolicy verifies prog against helpers and returns the callable
// policy. The helper set must include HelperGetBatchSize wired through the
// returned policy's pending batch (use Figure3Helpers with the policy's
// BatchSize method), or ignore batch entirely.
func NewVMPolicy(prog Program, helpers HelperSet) (*VMPolicy, error) {
	if err := Verify(prog, helpers); err != nil {
		return nil, err
	}
	return &VMPolicy{prog: prog, helpers: helpers}, nil
}

// BatchSize returns the batch size of the in-flight Decide call; pass it as
// the getBatch callback to Figure3Helpers.
func (v *VMPolicy) BatchSize() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.batch
}

// Decide implements Func by running the bytecode.
func (v *VMPolicy) Decide(batchSize int) Decision {
	v.mu.Lock()
	v.batch = int64(batchSize)
	v.mu.Unlock()
	r, err := runVerified(v.prog, v.helpers)
	if err != nil || r == 0 {
		return UseCPU
	}
	return UseGPU
}
