package linnos

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// ModelKind selects the network depth: the original LinnOS model or the
// augmented variants the paper evaluates ("We suffix these implementations
// with +1 and +2 ... three layers with [256,256,2] neurons and four layers
// with [256,256,256,2] neurons").
type ModelKind int

// Model variants.
const (
	Base ModelKind = iota
	Plus1
	Plus2
)

func (k ModelKind) String() string {
	switch k {
	case Base:
		return "NN"
	case Plus1:
		return "NN+1"
	case Plus2:
		return "NN+2"
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// Sizes returns the layer widths for the variant.
func (k ModelKind) Sizes() []int {
	switch k {
	case Plus1:
		return []int{InputWidth, 256, 256, 2}
	case Plus2:
		return []int{InputWidth, 256, 256, 256, 2}
	default:
		return []int{InputWidth, 256, 2}
	}
}

// Kinds lists the three variants in evaluation order.
func Kinds() []ModelKind { return []ModelKind{Base, Plus1, Plus2} }

// CPUInferCost is the kernel-space CPU cost of one inference per variant.
//
// Calibration: §7.1 reports "each inference on CPU takes around 15 µs" for
// the base model. Kernel-space inference pays kernel_fpu_begin/end and runs
// without the SIMD batching user-space frameworks get, so cost grows far
// more slowly than raw FLOPs when layers are added (larger matmuls amortize
// the fixed overhead); the +1/+2 constants keep the Fig 8 crossovers at the
// reported batch sizes (8, ~3, ~2 against the LAKE async path).
func (k ModelKind) CPUInferCost() time.Duration {
	switch k {
	case Plus1:
		return 26500 * time.Nanosecond
	case Plus2:
		return 38 * time.Microsecond
	default:
		return 15 * time.Microsecond
	}
}

// MaxBatch is the largest batch a predictor can stage (Fig 8 sweeps to
// 1024).
const MaxBatch = 1024

// Predictor is one LinnOS-style latency classifier wired through LAKE:
// the trained network lives in the user-space daemon (lakeD registers it as
// a device kernel), while the kernel side stages feature batches in lakeShm
// and launches inference via the remoted driver API.
type Predictor struct {
	rt   *core.Runtime
	kind ModelKind
	// net is the serving network behind an atomic pointer: the model
	// lifecycle hot-swaps versions with SwapNet while inferences are in
	// flight. Every inference path loads the pointer exactly once per
	// batch, so a batch always completes on a single version — swaps never
	// drop or mix predictions.
	net atomic.Pointer[nn.Network]

	ctx, fn uint64
	devIn   gpu.DevPtr
	devOut  gpu.DevPtr
	inBuf   *shm.Buffer
	outBuf  *shm.Buffer

	// stageMu serializes InferLAKE: the staging buffers and device slabs
	// are one per predictor, so concurrent remoted runs must not
	// interleave. It also guards the host-side scratch: the flattened
	// input and the decoded logits.
	stageMu sync.Mutex
	flat    []float32
	logits  []float32

	// kmu guards the device kernel's scratch: the decoded input, the packed
	// output and the forward activations.
	kmu                      sync.Mutex
	kernIn, kernOut, kernAct []float32

	// gpuLat / cpuLat are the runtime's shared per-item latency series
	// (the histograms the Fig 3 policy's observed-latency mode reads);
	// nil without telemetry.
	gpuLat, cpuLat *telemetry.Histogram
}

// kernelName is the device-kernel symbol for a variant.
func kernelName(k ModelKind) string { return fmt.Sprintf("linnos_%s", k) }

// NewPredictor builds a predictor for the trained network net (layer sizes
// must match kind) on runtime rt.
func NewPredictor(rt *core.Runtime, kind ModelKind, net *nn.Network) (*Predictor, error) {
	if err := checkSizes(kind, net); err != nil {
		return nil, err
	}
	p := &Predictor{rt: rt, kind: kind}
	p.net.Store(net)
	if tel := rt.Telemetry(); tel != nil {
		p.gpuLat = tel.Histogram(telemetry.MetricGPUItemLatency, "Observed per-item GPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets())
		p.cpuLat = tel.Histogram(telemetry.MetricCPUItemLatency, "Observed per-item CPU-path latency (virtual ns).", telemetry.DefaultLatencyBuckets())
	}
	// SwapNet only admits same-shape networks, so the FLOP count captured
	// here stays correct across hot-swaps.
	flops := net.Flops()
	rt.RegisterKernel(&cuda.Kernel{
		Name:  kernelName(kind),
		Flops: func(args []uint64) float64 { return float64(args[2]) * flops },
		Body:  p.kernelBody,
	})
	lib := rt.Lib()
	ctx, r := lib.CuCtxCreate("kernel-linnos")
	if r != cuda.Success {
		return nil, r.Err()
	}
	mod, r := lib.CuModuleLoad("linnos.cubin")
	if r != cuda.Success {
		return nil, r.Err()
	}
	fn, r := lib.CuModuleGetFunction(mod, kernelName(kind))
	if r != cuda.Success {
		return nil, r.Err()
	}
	p.ctx, p.fn = ctx, fn

	inBytes := int64(4 * InputWidth * MaxBatch)
	outBytes := int64(4 * 2 * MaxBatch)
	if p.devIn, r = lib.CuMemAlloc(inBytes); r != cuda.Success {
		return nil, r.Err()
	}
	if p.devOut, r = lib.CuMemAlloc(outBytes); r != cuda.Success {
		return nil, r.Err()
	}
	var err error
	if p.inBuf, err = rt.Region().Alloc(inBytes); err != nil {
		return nil, err
	}
	if p.outBuf, err = rt.Region().Alloc(outBytes); err != nil {
		return nil, err
	}
	return p, nil
}

// checkSizes validates a network against the variant's layer shape.
func checkSizes(kind ModelKind, net *nn.Network) error {
	want := kind.Sizes()
	got := net.Sizes()
	if len(got) != len(want) {
		return fmt.Errorf("linnos: network has %d layers, %s needs %d", len(got)-1, kind, len(want)-1)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("linnos: network sizes %v, %s needs %v", got, kind, want)
		}
	}
	return nil
}

// Kind returns the model variant.
func (p *Predictor) Kind() ModelKind { return p.kind }

// Net returns the serving network (used by training and tests).
func (p *Predictor) Net() *nn.Network { return p.net.Load() }

// SwapNet atomically replaces the serving network — the lifecycle
// manager's hot-swap hook. The new network must match the predictor's
// variant shape. Batches already in flight finish on the network they
// loaded; new batches see the replacement.
func (p *Predictor) SwapNet(net *nn.Network) error {
	// Fast path: the serving net already satisfies the variant shape, so
	// matching it is equivalent to checkSizes without the allocations.
	if !nn.SameShape(p.net.Load(), net) {
		if err := checkSizes(p.kind, net); err != nil {
			return err
		}
	}
	p.net.Store(net)
	return nil
}

// kernelBody is the device-side inference kernel: real forward passes over
// the staged batch. Args: [inPtr, outPtr, batch].
func (p *Predictor) kernelBody(dev *gpu.Device, args []uint64) error {
	if len(args) != 3 {
		return fmt.Errorf("linnos kernel: want 3 args, got %d", len(args))
	}
	batch := int(args[2])
	if batch <= 0 || batch > MaxBatch {
		return fmt.Errorf("linnos kernel: batch %d out of range", batch)
	}
	inMem, err := dev.Bytes(gpu.DevPtr(args[0]))
	if err != nil {
		return err
	}
	outMem, err := dev.Bytes(gpu.DevPtr(args[1]))
	if err != nil {
		return err
	}
	p.kmu.Lock()
	defer p.kmu.Unlock()
	flat, err := cuda.Float32sInto(p.kernIn, inMem, batch*InputWidth)
	if err != nil {
		return err
	}
	p.kernIn = flat
	net := p.net.Load() // one load per batch: a concurrent swap cannot mix versions mid-batch
	out := p.kernOut[:0]
	for i := 0; i < batch; i++ {
		logits := net.ForwardInto(flat[i*InputWidth:(i+1)*InputWidth], &p.kernAct)
		out = append(out, logits...)
	}
	p.kernOut = out
	return cuda.PutFloat32s(outMem, out)
}

// InferCPU classifies the batch on the kernel's CPU path: real forward
// passes, with the modeled kernel-space cost charged per inference.
func (p *Predictor) InferCPU(batch [][]float32) ([]bool, time.Duration) {
	net := p.net.Load() // one load per batch: swaps never mix versions mid-batch
	slow := make([]bool, len(batch))
	for i, x := range batch {
		logits := net.Forward(x)
		slow[i] = logits[1] > logits[0]
	}
	cost := time.Duration(len(batch)) * p.kind.CPUInferCost()
	p.rt.Clock().Advance(cost)
	if len(batch) > 0 {
		p.cpuLat.ObserveDuration(cost / time.Duration(len(batch)))
	}
	return slow, cost
}

// InferAuto routes the batch through pol (the Fig 3 profitability policy):
// GPU-profitable batches run the full LAKE stack, and a batch whose remoted
// path fails because lakeD is unavailable
// (CUDA_ERROR_SYSTEM_NOT_READY) completes on the kernel CPU path instead —
// an I/O completion must be predicted fast or slow either way. The returned
// Decision is the path that actually produced the predictions.
func (p *Predictor) InferAuto(batch [][]float32, pol policy.Func) ([]bool, policy.Decision, time.Duration, error) {
	dec := policy.UseGPU
	if pol != nil {
		dec = pol(len(batch))
	}
	if dec == policy.UseGPU {
		slow, d, err := p.InferLAKE(batch, true)
		if err == nil {
			return slow, policy.UseGPU, d, nil
		}
		if res, ok := cuda.AsResult(err); !ok || res != cuda.ErrNotReady {
			return nil, policy.UseGPU, 0, err
		}
	}
	slow, d := p.InferCPU(batch)
	return slow, policy.UseCPU, d, nil
}

// InferLAKE classifies the batch on the GPU through the full LAKE stack and
// returns the predictions plus the modeled inference time. With sync=true
// the input staging copy is included in the measured time ("LAKE (sync.)");
// otherwise the copy is performed before timing starts, modeling input data
// copied to the GPU asynchronously during batch formation ("LAKE").
func (p *Predictor) InferLAKE(batch [][]float32, sync bool) ([]bool, time.Duration, error) {
	n := len(batch)
	if n == 0 {
		return nil, 0, nil
	}
	if n > MaxBatch {
		return nil, 0, fmt.Errorf("linnos: batch %d exceeds max %d", n, MaxBatch)
	}
	p.stageMu.Lock()
	defer p.stageMu.Unlock()
	lib := p.rt.Lib()
	p.flat = p.flat[:0]
	for _, x := range batch {
		if len(x) != InputWidth {
			return nil, 0, fmt.Errorf("linnos: feature vector width %d, want %d", len(x), InputWidth)
		}
		p.flat = append(p.flat, x...)
	}
	if err := cuda.PutFloat32s(p.inBuf.Bytes(), p.flat); err != nil {
		return nil, 0, err
	}
	inBytes := int64(4 * n * InputWidth)
	outBytes := int64(4 * 2 * n)

	copyIn := func() error {
		if r := lib.CuMemcpyHtoDShm(p.devIn, p.inBuf, inBytes); r != cuda.Success {
			return r.Err()
		}
		return nil
	}

	var sw vtime.Stopwatch
	if sync {
		sw = vtime.StartStopwatch(p.rt.Clock())
		if err := copyIn(); err != nil {
			return nil, 0, err
		}
	} else {
		if err := copyIn(); err != nil {
			return nil, 0, err
		}
		sw = vtime.StartStopwatch(p.rt.Clock())
	}
	if r := lib.CuLaunchKernel(p.ctx, p.fn, []uint64{uint64(p.devIn), uint64(p.devOut), uint64(n)}); r != cuda.Success {
		return nil, 0, r.Err()
	}
	if r := lib.CuMemcpyDtoHShm(p.outBuf, p.devOut, outBytes); r != cuda.Success {
		return nil, 0, r.Err()
	}
	elapsed := sw.Elapsed()
	p.gpuLat.ObserveDuration(elapsed / time.Duration(n))

	logits, err := cuda.Float32sInto(p.logits, p.outBuf.Bytes(), n*2)
	if err != nil {
		return nil, 0, err
	}
	p.logits = logits
	slow := make([]bool, n)
	for i := range slow {
		slow[i] = logits[2*i+1] > logits[2*i]
	}
	return slow, elapsed, nil
}
