package linnos

import (
	"fmt"
	"time"

	"lakego/internal/core"
	"lakego/internal/nn"
	"lakego/internal/offload"
	"lakego/internal/policy"
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
// and launches inference via the remoted driver API. The staging, kernel
// and measurement protocol are the shared offload.Runner's; the predictor
// adds its model variant, the hot-swap slot and the slow-vs-fast argmax.
type Predictor struct {
	kind ModelKind
	// net is the serving network: the model lifecycle hot-swaps versions
	// with SwapNet while inferences are in flight. The runner resolves the
	// slot's bound forward once per batch, so a batch always completes on a
	// single version — swaps never drop or mix predictions.
	net    nn.Slot
	runner *offload.Runner
}

// kernelName is the device-kernel symbol for a variant.
func kernelName(k ModelKind) string { return fmt.Sprintf("linnos_%s", k) }

// NewPredictor builds a predictor for the trained network net (layer sizes
// must match kind) on runtime rt.
func NewPredictor(rt *core.Runtime, kind ModelKind, net *nn.Network) (*Predictor, error) {
	if err := kind.check(net); err != nil {
		return nil, err
	}
	p := &Predictor{kind: kind}
	p.net.Store(net)
	runner, err := offload.NewRunner(rt, offload.Config{
		Name:        kernelName(kind),
		InputWidth:  InputWidth,
		OutputWidth: 2,
		MaxBatch:    MaxBatch,
		CPUPerItem:  kind.CPUInferCost(),
		// SwapNet only admits same-shape networks, so the FLOP count
		// captured here stays correct across hot-swaps.
		FlopsPerItem:    net.Flops(),
		ForwardProvider: p.net.Forward,
	})
	if err != nil {
		return nil, err
	}
	p.runner = runner
	return p, nil
}

// check validates a network against the variant's layer shape.
func (k ModelKind) check(net *nn.Network) error {
	want := k.Sizes()
	got := net.Sizes()
	if len(got) != len(want) {
		return fmt.Errorf("linnos: network has %d layers, %s needs %d", len(got)-1, k, len(want)-1)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("linnos: network sizes %v, %s needs %v", got, k, want)
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
func (p *Predictor) SwapNet(net *nn.Network) error { return p.net.Swap(net, p.kind.check) }

// slowAll decodes each item's logits: class 1 is "slow".
func slowAll(out [][]float32) []bool {
	res := make([]bool, len(out))
	for i, y := range out {
		res[i] = y[1] > y[0]
	}
	return res
}

// InferCPU classifies the batch on the kernel's CPU path: real forward
// passes, with the modeled kernel-space cost charged per inference.
func (p *Predictor) InferCPU(batch [][]float32) ([]bool, time.Duration) {
	out, cost := p.runner.RunCPU(batch)
	return slowAll(out), cost
}

// InferAuto routes the batch through pol (the Fig 3 profitability policy):
// GPU-profitable batches run the full LAKE stack, and a batch whose remoted
// path fails because lakeD is unavailable
// (CUDA_ERROR_SYSTEM_NOT_READY) completes on the kernel CPU path instead —
// an I/O completion must be predicted fast or slow either way. The returned
// Decision is the path that actually produced the predictions.
func (p *Predictor) InferAuto(batch [][]float32, pol policy.Func) ([]bool, policy.Decision, time.Duration, error) {
	out, dec, d, err := p.runner.RunAuto(batch, pol)
	if err != nil {
		return nil, dec, 0, err
	}
	return slowAll(out), dec, d, nil
}

// InferLAKE classifies the batch on the GPU through the full LAKE stack and
// returns the predictions plus the modeled inference time. With sync=true
// the input staging copy is included in the measured time ("LAKE (sync.)");
// otherwise the copy is performed before timing starts, modeling input data
// copied to the GPU asynchronously during batch formation ("LAKE").
func (p *Predictor) InferLAKE(batch [][]float32, sync bool) ([]bool, time.Duration, error) {
	if len(batch) == 0 {
		return nil, 0, nil
	}
	res := make([]bool, len(batch))
	d, err := p.runner.RunLAKEEach(batch, sync, func(i int, y []float32) { res[i] = y[1] > y[0] })
	if err != nil {
		return nil, 0, err
	}
	return res, d, nil
}
