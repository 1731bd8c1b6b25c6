// Package offload provides the shared harness the ML-assisted subsystems
// use to run batched inference either on the kernel CPU path or through
// LAKE's remoted CUDA path, and to sweep batch sizes for the profitability
// figures (Figs 10, 11, 12) and Table 3's crossover points.
//
// Each workload package wraps a Runner with its own model, feature width
// and calibrated kernel-space CPU cost; the Runner owns the device kernel
// registration, lakeShm staging buffers and the measurement protocol
// (LAKE vs LAKE-sync, mirroring §7's "with and without synchronous data
// movement").
package offload

import (
	"fmt"
	"sync"
	"time"

	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/gpu"
	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// Config describes one offloadable classifier.
type Config struct {
	// Name is the device-kernel symbol (must be unique per runtime).
	Name string
	// InputWidth / OutputWidth are per-item float32 counts.
	InputWidth, OutputWidth int
	// MaxBatch bounds one staged batch.
	MaxBatch int
	// CPUFixed is the per-invocation kernel-space cost (kernel_fpu
	// bracketing etc.); CPUPerItem is the per-inference cost.
	CPUFixed, CPUPerItem time.Duration
	// FlopsPerItem drives the GPU compute-time model.
	FlopsPerItem float64
	// Forward computes one item's real output, writing its activations
	// into *scratch when scratch is non-nil (nn.Network.ForwardInto). The
	// device kernel passes runner-owned scratch, so a steady-state item
	// allocates nothing; RunCPU passes nil, and the output must then be
	// freshly allocated because it is handed to the caller. May be nil for
	// timing-only configurations (e.g. the large malware sweeps), in which
	// case outputs are zero.
	Forward nn.ForwardFunc
	// ForwardProvider, when non-nil, is resolved once per batch to obtain
	// the forward function, overriding Forward. It is the model-lifecycle
	// hot-swap hook (nn.Slot.Forward): resolving per batch (instead of
	// reading a mutable Forward per item) guarantees a batch never mixes
	// model versions.
	ForwardProvider func() nn.ForwardFunc
}

// forward resolves the per-batch forward function (nil = timing-only).
func (c Config) forward() nn.ForwardFunc {
	if c.ForwardProvider != nil {
		return c.ForwardProvider()
	}
	return c.Forward
}

func (c Config) validate() error {
	if c.Name == "" {
		return fmt.Errorf("offload: config needs a kernel name")
	}
	if c.InputWidth <= 0 || c.OutputWidth <= 0 || c.MaxBatch <= 0 {
		return fmt.Errorf("offload: %s: invalid dimensions %dx%d max %d",
			c.Name, c.InputWidth, c.OutputWidth, c.MaxBatch)
	}
	return nil
}

// Runner executes one classifier on either path.
type Runner struct {
	rt  *core.Runtime
	cfg Config

	ctx, fn       uint64
	devIn, devOut gpu.DevPtr
	inBuf, outBuf *shm.Buffer

	// stageMu serializes RunLAKE: the staging buffers and device slabs are
	// one per runner, so concurrent remoted runs must not interleave. It
	// also guards the host-side scratch: the flattened input and the
	// decoded output.
	stageMu sync.Mutex
	flat    []float32
	hostOut []float32

	// kmu guards the device kernel's scratch: the decoded input, the packed
	// output and the forward activations.
	kmu                      sync.Mutex
	kernIn, kernOut, kernAct []float32

	// gpuLat / cpuLat are the runtime's shared per-item latency series
	// (the same histograms the batcher feeds and the Fig 3 policy's
	// observed-latency mode reads); nil without telemetry.
	gpuLat, cpuLat *telemetry.Histogram
}

// NewRunner registers the device kernel and stages buffers.
func NewRunner(rt *core.Runtime, cfg Config) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runner{rt: rt, cfg: cfg}
	if tel := rt.Telemetry(); tel != nil {
		r.gpuLat = tel.Histogram(telemetry.MetricGPUItemLatency, "Observed per-item GPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets())
		r.cpuLat = tel.Histogram(telemetry.MetricCPUItemLatency, "Observed per-item CPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets())
	}
	rt.RegisterKernel(&cuda.Kernel{
		Name:  cfg.Name,
		Flops: func(args []uint64) float64 { return float64(args[2]) * cfg.FlopsPerItem },
		Body:  r.kernelBody,
	})
	lib := rt.Lib()
	ctx, res := lib.CuCtxCreate("kernel-" + cfg.Name)
	if res != cuda.Success {
		return nil, res.Err()
	}
	mod, res := lib.CuModuleLoad(cfg.Name + ".cubin")
	if res != cuda.Success {
		return nil, res.Err()
	}
	fn, res := lib.CuModuleGetFunction(mod, cfg.Name)
	if res != cuda.Success {
		return nil, res.Err()
	}
	r.ctx, r.fn = ctx, fn

	inBytes := int64(4 * cfg.InputWidth * cfg.MaxBatch)
	outBytes := int64(4 * cfg.OutputWidth * cfg.MaxBatch)
	if r.devIn, res = lib.CuMemAlloc(inBytes); res != cuda.Success {
		return nil, res.Err()
	}
	if r.devOut, res = lib.CuMemAlloc(outBytes); res != cuda.Success {
		return nil, res.Err()
	}
	var err error
	if r.inBuf, err = rt.Region().Alloc(inBytes); err != nil {
		return nil, err
	}
	if r.outBuf, err = rt.Region().Alloc(outBytes); err != nil {
		return nil, err
	}
	return r, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

func (r *Runner) kernelBody(dev *gpu.Device, args []uint64) error {
	if len(args) != 3 {
		return fmt.Errorf("%s: want 3 args, got %d", r.cfg.Name, len(args))
	}
	n := int(args[2])
	if n <= 0 || n > r.cfg.MaxBatch {
		return fmt.Errorf("%s: batch %d out of range", r.cfg.Name, n)
	}
	fwd := r.cfg.forward()
	if fwd == nil {
		return nil // timing-only kernel
	}
	inMem, err := dev.Bytes(gpu.DevPtr(args[0]))
	if err != nil {
		return err
	}
	outMem, err := dev.Bytes(gpu.DevPtr(args[1]))
	if err != nil {
		return err
	}
	r.kmu.Lock()
	defer r.kmu.Unlock()
	flat, err := cuda.Float32sInto(r.kernIn, inMem, n*r.cfg.InputWidth)
	if err != nil {
		return err
	}
	r.kernIn = flat
	out := r.kernOut[:0]
	for i := 0; i < n; i++ {
		x := flat[i*r.cfg.InputWidth : (i+1)*r.cfg.InputWidth]
		y := fwd(x, &r.kernAct)
		if len(y) != r.cfg.OutputWidth {
			return fmt.Errorf("%s: forward returned %d outputs, want %d",
				r.cfg.Name, len(y), r.cfg.OutputWidth)
		}
		out = append(out, y...)
	}
	r.kernOut = out
	return cuda.PutFloat32s(outMem, out)
}

// RunCPU executes the batch on the kernel CPU path: real outputs (when
// Forward is set) with the calibrated kernel-space cost charged.
func (r *Runner) RunCPU(batch [][]float32) ([][]float32, time.Duration) {
	fwd := r.cfg.forward() // resolved once: the whole batch runs one model version
	out := make([][]float32, len(batch))
	for i, x := range batch {
		if fwd != nil {
			out[i] = fwd(x, nil)
		} else {
			out[i] = make([]float32, r.cfg.OutputWidth)
		}
	}
	cost := r.cfg.CPUFixed + time.Duration(len(batch))*r.cfg.CPUPerItem
	r.rt.Clock().Advance(cost)
	if len(batch) > 0 {
		r.cpuLat.ObserveDuration(cost / time.Duration(len(batch)))
	}
	return out, cost
}

// RunLAKE executes the batch through the full remoted stack. With sync the
// input staging copy is on the measured critical path ("LAKE (sync.)");
// otherwise it is charged before timing starts ("LAKE"). The returned
// outputs are the caller's.
func (r *Runner) RunLAKE(batch [][]float32, sync bool) ([][]float32, time.Duration, error) {
	n, w := len(batch), r.cfg.OutputWidth
	flat := make([]float32, n*w)
	elapsed, err := r.RunLAKEEach(batch, sync, func(i int, y []float32) { copy(flat[i*w:], y) })
	if err != nil || n == 0 {
		return nil, 0, err
	}
	out := make([][]float32, n)
	for i := range out {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return out, elapsed, nil
}

// RunLAKEEach is RunLAKE without materializing the outputs: it calls visit
// with each item's output row in batch order. The row aliases runner
// scratch and is valid only during that visit call; a caller that keeps
// results copies them out. With reused scratch throughout, a steady-state
// run allocates nothing of its own.
func (r *Runner) RunLAKEEach(batch [][]float32, sync bool, visit func(i int, y []float32)) (time.Duration, error) {
	n := len(batch)
	if n == 0 {
		return 0, nil
	}
	if n > r.cfg.MaxBatch {
		return 0, fmt.Errorf("%s: batch %d exceeds max %d", r.cfg.Name, n, r.cfg.MaxBatch)
	}
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	r.flat = r.flat[:0]
	for _, x := range batch {
		if len(x) != r.cfg.InputWidth {
			return 0, fmt.Errorf("%s: item width %d, want %d", r.cfg.Name, len(x), r.cfg.InputWidth)
		}
		r.flat = append(r.flat, x...)
	}
	if err := cuda.PutFloat32s(r.inBuf.Bytes(), r.flat); err != nil {
		return 0, err
	}
	lib := r.rt.Lib()
	inBytes := int64(4 * n * r.cfg.InputWidth)
	outBytes := int64(4 * n * r.cfg.OutputWidth)
	copyIn := func() error {
		if res := lib.CuMemcpyHtoDShm(r.devIn, r.inBuf, inBytes); res != cuda.Success {
			return res.Err()
		}
		return nil
	}
	var sw vtime.Stopwatch
	if sync {
		sw = vtime.StartStopwatch(r.rt.Clock())
		if err := copyIn(); err != nil {
			return 0, err
		}
	} else {
		if err := copyIn(); err != nil {
			return 0, err
		}
		sw = vtime.StartStopwatch(r.rt.Clock())
	}
	if res := lib.CuLaunchKernel(r.ctx, r.fn, []uint64{uint64(r.devIn), uint64(r.devOut), uint64(n)}); res != cuda.Success {
		return 0, res.Err()
	}
	if res := lib.CuMemcpyDtoHShm(r.outBuf, r.devOut, outBytes); res != cuda.Success {
		return 0, res.Err()
	}
	elapsed := sw.Elapsed()
	r.gpuLat.ObserveDuration(elapsed / time.Duration(n))

	w := r.cfg.OutputWidth
	vals, err := cuda.Float32sInto(r.hostOut, r.outBuf.Bytes(), n*w)
	if err != nil {
		return 0, err
	}
	r.hostOut = vals
	for i := 0; i < n; i++ {
		visit(i, vals[i*w:(i+1)*w:(i+1)*w])
	}
	return elapsed, nil
}

// RunAuto routes one batch through pol (the Fig 3 profitability policy)
// and executes it on the decided path. A GPU-routed batch that fails
// because lakeD is unavailable (CUDA_ERROR_SYSTEM_NOT_READY — declared
// dead and unrecovered) transparently completes on the kernel CPU
// fallback; other remoted errors are returned. The returned Decision is
// the path that actually produced the outputs.
func (r *Runner) RunAuto(batch [][]float32, pol policy.Func) ([][]float32, policy.Decision, time.Duration, error) {
	dec := policy.UseGPU
	if pol != nil {
		dec = pol(len(batch))
	}
	if dec == policy.UseGPU {
		out, d, err := r.RunLAKE(batch, true)
		if err == nil {
			return out, policy.UseGPU, d, nil
		}
		if res, ok := cuda.AsResult(err); !ok || res != cuda.ErrNotReady {
			return nil, policy.UseGPU, 0, err
		}
	}
	out, d := r.RunCPU(batch)
	return out, policy.UseCPU, d, nil
}

// SweepPoint is one batch-size measurement across execution paths.
type SweepPoint struct {
	Batch    int
	CPU      time.Duration
	LAKE     time.Duration
	LAKESync time.Duration
}

// Sweep measures the runner at each batch size; mkItem generates the i-th
// input of a batch.
func Sweep(r *Runner, batches []int, mkItem func(i int) []float32) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(batches))
	for _, b := range batches {
		if b > r.cfg.MaxBatch {
			return nil, fmt.Errorf("offload: sweep batch %d exceeds max %d", b, r.cfg.MaxBatch)
		}
		batch := make([][]float32, b)
		for i := range batch {
			batch[i] = mkItem(i)
		}
		_, cpuT := r.RunCPU(batch)
		_, asyncT, err := r.RunLAKE(batch, false)
		if err != nil {
			return nil, err
		}
		_, syncT, err := r.RunLAKE(batch, true)
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{Batch: b, CPU: cpuT, LAKE: asyncT, LAKESync: syncT})
	}
	return points, nil
}

// Crossover returns the smallest measured batch where the LAKE (async)
// path beats the CPU path, or 0 if it never does.
func Crossover(points []SweepPoint) int {
	for _, p := range points {
		if p.LAKE < p.CPU {
			return p.Batch
		}
	}
	return 0
}

// StandardBatches is the 1..1024 power-of-two x-axis of Figs 8, 10, 11.
func StandardBatches() []int {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}
