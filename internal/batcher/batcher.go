// Package batcher is lakeD's cross-client inference batching subsystem: it
// turns independent remoted inference calls from many concurrent kernel
// clients into dynamically formed batched GPU launches.
//
// Every crossover in the paper (Table 3, Figs 8-12) is driven by batch
// size: GPU offload only pays off once enough requests are coalesced, yet
// each kernel-side client on its own rarely accumulates a profitable batch.
// The batcher closes that gap with continuous batching:
//
//   - a per-model request queue with a deadline-based flush — a request
//     never waits longer than Config.MaxWait on the virtual clock before
//     its batch is launched;
//   - adaptive per-flush execution: each flush consults the Fig 3
//     profitability/contention policy (internal/policy over remoted NVML
//     utilization) to run the formed batch on the GPU or on the kernel CPU
//     fallback;
//   - per-client fair admission: every client's outstanding requests are
//     bounded (Config.ClientDepth) and excess submissions are rejected
//     with the retryable ErrBackpressure instead of growing the queue;
//   - zero-copy scatter/gather: each request's input and output live in
//     their own lakeShm slices; only offsets cross the kernel/user
//     boundary, and lakeD gathers the slices into one device staging area
//     per flush (internal/remoting.APIBatchedInfer).
//
// Clients obtain a handle with Batcher.Client, submit feature batches with
// Client.Submit (or the synchronous Client.Infer), and collect results via
// Pending.Wait. Results are bit-identical to unbatched execution: batching
// changes when and where a request runs, never what it computes.
package batcher

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lakego/internal/cuda"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/gpupool"
	"lakego/internal/nn"
	"lakego/internal/policy"
	"lakego/internal/remoting"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// ErrBackpressure is the reject-with-retry result: the client (or the
// region) is at capacity and the caller should retry after draining
// outstanding requests. It is the batching analogue of a full Netlink
// socket buffer — explicit backpressure instead of unbounded queueing.
var ErrBackpressure = errors.New("batcher: queue full, retry after outstanding requests drain")

// Runtime is the slice of core.Runtime the batcher needs. Declaring it here
// (Go interface satisfaction is implicit) keeps internal/core free to
// depend on this package without a cycle.
type Runtime interface {
	Clock() *vtime.Clock
	Lib() *remoting.Lib
	Region() *shm.Region
	RegisterKernel(k *cuda.Kernel)
}

// PoolRuntime is optionally implemented by runtimes that expose a
// multi-device pool. When present (and the pool has more than one device),
// the batcher stages each model on every device and steers each flush to
// the least-utilized one via Pool.PlaceFlush. Single-device runtimes —
// and Runtime implementations that predate pooling — are untouched.
type PoolRuntime interface {
	Pool() *gpupool.Pool
}

// Config parameterizes a Batcher.
type Config struct {
	// MaxBatch is the target flush size in items: a queue reaching it is
	// flushed immediately by the submitting client. Default 32.
	MaxBatch int
	// MaxWait is the deadline-based flush bound on the virtual clock: a
	// flush happens no later than MaxWait after its oldest request was
	// enqueued. Default 100µs.
	MaxWait time.Duration
	// Linger is the real-time window a waiting client leaves open for
	// other goroutines to coalesce into the batch before it drives a
	// deadline flush itself. Linger is wall-clock scheduling slack only;
	// it never advances the virtual clock, so simulated results do not
	// depend on it. 0 flushes on first Wait. Default 200µs.
	Linger time.Duration
	// ClientDepth bounds each client's outstanding (submitted, not yet
	// delivered) requests; submissions beyond it fail with
	// ErrBackpressure. Default 8.
	ClientDepth int
	// Policy picks GPU vs CPU execution for each formed batch, typically
	// a Fig 3 adaptive policy's Decide. nil always offloads.
	Policy policy.Func
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig() Config {
	return Config{
		MaxBatch:    32,
		MaxWait:     100 * time.Microsecond,
		Linger:      200 * time.Microsecond,
		ClientDepth: 8,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxWait <= 0 {
		c.MaxWait = d.MaxWait
	}
	if c.Linger < 0 {
		c.Linger = 0
	}
	if c.ClientDepth <= 0 {
		c.ClientDepth = d.ClientDepth
	}
	return c
}

// ModelConfig describes one batchable model with offload.Config's fields
// and forward hook type (nn.ForwardFunc), so existing workloads can route
// through the batcher without retraining or recalibration.
type ModelConfig struct {
	// Name is the device-kernel symbol (unique per runtime).
	Name string
	// InputWidth / OutputWidth are per-item float32 counts.
	InputWidth, OutputWidth int
	// MaxBatch caps one flush in items (device staging size). Default
	// 1024, the Fig 8-11 sweep ceiling.
	MaxBatch int
	// CPUFixed / CPUPerItem are the calibrated kernel-space CPU costs
	// charged when a flush is routed to the CPU fallback.
	CPUFixed, CPUPerItem time.Duration
	// FlopsPerItem drives the GPU compute-time model.
	FlopsPerItem float64
	// Forward computes one item's output (nn.Network.ForwardInto). The
	// batcher passes nil scratch, so each output is freshly allocated. nil
	// means timing-only (zero outputs).
	Forward nn.ForwardFunc
	// ForwardProvider, when non-nil, is resolved once per flush to obtain
	// the forward function, overriding Forward — the model-lifecycle
	// hot-swap hook (nn.Slot.Forward). Per-flush resolution keeps every
	// flushed batch on a single model version.
	ForwardProvider func() nn.ForwardFunc
}

// forward resolves the per-flush forward function (nil = timing-only).
func (mc ModelConfig) forward() nn.ForwardFunc {
	if mc.ForwardProvider != nil {
		return mc.ForwardProvider()
	}
	return mc.Forward
}

// Stats is a snapshot of batcher activity.
type Stats struct {
	// Requests and Items count accepted submissions (a request carries
	// >= 1 items); Rejected counts backpressured submissions.
	Requests, Items, Rejected int64
	// Flushes = GPUFlushes + CPUFlushes; FullFlushes were triggered by
	// reaching MaxBatch, DeadlineFlushes by the MaxWait timer.
	Flushes, GPUFlushes, CPUFlushes int64
	FullFlushes, DeadlineFlushes    int64
	// FallbackFlushes counts GPU-routed flushes that completed on the CPU
	// because lakeD was unavailable (CUDA_ERROR_SYSTEM_NOT_READY). They
	// are included in GPUFlushes (the policy's routing decision).
	FallbackFlushes int64
	// MaxQueueDelay is the largest virtual-time gap observed between a
	// request's enqueue and its batch's formation: the oldest request's
	// deadline for a deadline flush, the filling request's enqueue for a
	// full flush. It never exceeds MaxWait.
	MaxQueueDelay time.Duration
	// MaxStreamWait is the largest virtual-time gap between a batch's
	// formation and its flush: the time a formed batch waited for the
	// model's staging stream while an earlier flush of the model ran.
	MaxStreamWait time.Duration
}

// AvgBatch returns the mean flushed batch size in items.
func (s Stats) AvgBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Items) / float64(s.Flushes)
}

// Batcher aggregates inference requests across clients per model.
type Batcher struct {
	rt   Runtime
	cfg  Config
	pool *gpupool.Pool // non-nil only for multi-device runtimes

	mu     sync.Mutex
	models map[string]*model

	requests, items, rejected       atomic.Int64
	flushes, gpuFlushes, cpuFlushes atomic.Int64
	fullFlushes, deadlineFlushes    atomic.Int64
	fallbackFlushes                 atomic.Int64
	maxDelay, maxStreamWait         atomic.Int64

	tel Telemetry

	// rec receives batcher-domain events and allocates per-request and
	// per-flush trace IDs; nil-safe.
	rec *flightrec.Recorder
}

// Telemetry is the batcher's instrument set; all fields may be nil.
type Telemetry struct {
	// QueueDepth tracks currently queued items across all models.
	QueueDepth *telemetry.Gauge
	// FlushItems observes the size (items) of each formed batch.
	FlushItems *telemetry.Histogram
	// Rejects counts backpressured submissions.
	Rejects *telemetry.Counter
	// QueueDelay observes each request's enqueue-to-formation virtual
	// wait.
	QueueDelay *telemetry.Histogram
	// StreamWait observes each flush's formation-to-flush virtual wait
	// behind the model's previous flush.
	StreamWait *telemetry.Histogram
	// GPUItemLatency / CPUItemLatency observe per-item execution latency
	// of each flush on its decided path. They are the shared series
	// (telemetry.MetricGPUItemLatency / MetricCPUItemLatency) the Fig 3
	// policy's observed-latency mode reads.
	GPUItemLatency *telemetry.Histogram
	CPUItemLatency *telemetry.Histogram
}

// SetTelemetry attaches instruments. Must be called during runtime
// construction, before any traffic.
func (b *Batcher) SetTelemetry(tel Telemetry) {
	b.tel = tel
}

// SetFlightRecorder attaches the flight recorder. Must be called during
// runtime construction, before any traffic.
func (b *Batcher) SetFlightRecorder(rec *flightrec.Recorder) {
	b.rec = rec
}

// New creates a batcher on rt. Register models with RegisterModel, then
// hand Client handles to submitters.
func New(rt Runtime, cfg Config) *Batcher {
	b := &Batcher{rt: rt, cfg: cfg.withDefaults(), models: make(map[string]*model)}
	if pr, ok := rt.(PoolRuntime); ok {
		if pool := pr.Pool(); pool != nil && pool.Size() > 1 {
			b.pool = pool
		}
	}
	return b
}

// Config returns the batcher's effective (defaulted) configuration.
func (b *Batcher) Config() Config { return b.cfg }

// Stats snapshots activity counters.
func (b *Batcher) Stats() Stats {
	return Stats{
		Requests:        b.requests.Load(),
		Items:           b.items.Load(),
		Rejected:        b.rejected.Load(),
		Flushes:         b.flushes.Load(),
		GPUFlushes:      b.gpuFlushes.Load(),
		CPUFlushes:      b.cpuFlushes.Load(),
		FullFlushes:     b.fullFlushes.Load(),
		DeadlineFlushes: b.deadlineFlushes.Load(),
		FallbackFlushes: b.fallbackFlushes.Load(),
		MaxQueueDelay:   time.Duration(b.maxDelay.Load()),
		MaxStreamWait:   time.Duration(b.maxStreamWait.Load()),
	}
}

// model is one registered model's queue plus device-side handles. On a
// multi-device runtime specs holds one staging spec per pool device (index
// = ordinal); single-device runtimes have exactly specs[0].
type model struct {
	b     *Batcher
	mc    ModelConfig
	specs []remoting.BatchSpec

	mu          sync.Mutex
	queue       []*Pending
	queuedItems int
	nextSeq     uint64
	leader      bool
	leaderGone  chan struct{}
	fullSig     chan struct{}

	// execMu serializes flush execution: a model has one device staging
	// area, so concurrent flushes of the same model must not interleave.
	execMu sync.Mutex
	// Flush wire scratch, guarded by execMu: the entry slice and the
	// remoting marshal/demux buffers are recycled across flushes so the
	// steady-state flush wire path performs no heap allocation.
	entriesScratch []remoting.BatchEntry
	wireScratch    remoting.BatchScratch
}

// RegisterModel installs a model: registers its device kernel, creates the
// remoted context/function handles and the device staging allocations one
// flush executes against.
func (b *Batcher) RegisterModel(mc ModelConfig) error {
	if mc.Name == "" {
		return fmt.Errorf("batcher: model needs a name")
	}
	if mc.InputWidth <= 0 || mc.OutputWidth <= 0 {
		return fmt.Errorf("batcher: %s: invalid widths %dx%d", mc.Name, mc.InputWidth, mc.OutputWidth)
	}
	if mc.MaxBatch <= 0 {
		mc.MaxBatch = 1024
	}
	b.mu.Lock()
	if _, dup := b.models[mc.Name]; dup {
		b.mu.Unlock()
		return fmt.Errorf("batcher: model %q already registered", mc.Name)
	}
	b.mu.Unlock()

	m := &model{b: b, mc: mc}
	b.rt.RegisterKernel(&cuda.Kernel{
		Name:  mc.Name,
		Flops: func(args []uint64) float64 { return float64(args[2]) * mc.FlopsPerItem },
		Body:  m.kernelBody,
	})
	lib := b.rt.Lib()
	mod, r := lib.CuModuleLoad(mc.Name + ".cubin")
	if r != cuda.Success {
		return r.Err()
	}
	fn, r := lib.CuModuleGetFunction(mod, mc.Name)
	if r != cuda.Success {
		return r.Err()
	}
	if b.pool == nil {
		// Single-device: the exact wire sequence the batcher has always
		// issued (argless ctx create, single-arg alloc).
		ctx, r := lib.CuCtxCreate("batch-" + mc.Name)
		if r != cuda.Success {
			return r.Err()
		}
		devIn, r := lib.CuMemAlloc(int64(4 * mc.InputWidth * mc.MaxBatch))
		if r != cuda.Success {
			return r.Err()
		}
		devOut, r := lib.CuMemAlloc(int64(4 * mc.OutputWidth * mc.MaxBatch))
		if r != cuda.Success {
			return r.Err()
		}
		m.specs = []remoting.BatchSpec{{
			Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut,
			InWidth: mc.InputWidth, OutWidth: mc.OutputWidth,
		}}
	} else {
		// Multi-device: stage the model on every pool device so a flush can
		// be steered to whichever device placement picks.
		for ord := 0; ord < b.pool.Size(); ord++ {
			ctx, r := lib.CuCtxCreateOnDevice("batch-"+mc.Name, ord)
			if r != cuda.Success {
				return r.Err()
			}
			devIn, r := lib.CuMemAllocOnDevice(int64(4*mc.InputWidth*mc.MaxBatch), ord)
			if r != cuda.Success {
				return r.Err()
			}
			devOut, r := lib.CuMemAllocOnDevice(int64(4*mc.OutputWidth*mc.MaxBatch), ord)
			if r != cuda.Success {
				return r.Err()
			}
			m.specs = append(m.specs, remoting.BatchSpec{
				Ctx: ctx, Fn: fn, DevIn: devIn, DevOut: devOut,
				InWidth: mc.InputWidth, OutWidth: mc.OutputWidth,
			})
		}
	}
	b.mu.Lock()
	b.models[mc.Name] = m
	b.mu.Unlock()
	return nil
}

func (b *Batcher) model(name string) (*model, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m, ok := b.models[name]
	if !ok {
		return nil, fmt.Errorf("batcher: model %q not registered", name)
	}
	return m, nil
}

// kernelBody is the device-side batched inference kernel: one forward pass
// per item over the gathered staging slab. Args: [inPtr, outPtr, items].
func (m *model) kernelBody(dev *gpu.Device, args []uint64) error {
	if len(args) != 3 {
		return fmt.Errorf("%s: want 3 args, got %d", m.mc.Name, len(args))
	}
	n := int(args[2])
	if n <= 0 || n > m.mc.MaxBatch {
		return fmt.Errorf("%s: batch %d out of range", m.mc.Name, n)
	}
	fwd := m.mc.forward()
	if fwd == nil {
		return nil // timing-only model
	}
	inMem, err := dev.Bytes(gpu.DevPtr(args[0]))
	if err != nil {
		return err
	}
	outMem, err := dev.Bytes(gpu.DevPtr(args[1]))
	if err != nil {
		return err
	}
	flat, err := cuda.Float32s(inMem, n*m.mc.InputWidth)
	if err != nil {
		return err
	}
	out := make([]float32, 0, n*m.mc.OutputWidth)
	for i := 0; i < n; i++ {
		y := fwd(flat[i*m.mc.InputWidth:(i+1)*m.mc.InputWidth], nil)
		if len(y) != m.mc.OutputWidth {
			return fmt.Errorf("%s: forward returned %d outputs, want %d",
				m.mc.Name, len(y), m.mc.OutputWidth)
		}
		out = append(out, y...)
	}
	return cuda.PutFloat32s(outMem, out)
}

// Client is one kernel-side submitter's handle. Admission is per client:
// at most ClientDepth outstanding requests, so one chatty subsystem cannot
// starve the others (fair admission).
type Client struct {
	b           *Batcher
	name        string
	outstanding atomic.Int64
}

// Client returns a named submission handle.
func (b *Batcher) Client(name string) *Client {
	return &Client{b: b, name: name}
}

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Outstanding reports the client's submitted-but-undelivered requests.
func (c *Client) Outstanding() int { return int(c.outstanding.Load()) }

// Pending is one in-flight request. Exactly one goroutine should Wait on
// it (Wait may drive the flush on the caller's goroutine).
type Pending struct {
	m     *model
	c     *Client
	seq   uint64
	count int
	// tid is the request's flight-recorder trace ID (0 when untraced). It
	// rides the coalesced wire frame so the member request's journey is
	// reconstructable from a dump even though it never issued its own
	// command.
	tid uint64

	inBuf, outBuf *shm.Buffer
	enq           time.Duration

	// taken is guarded by m.mu: true once a flush has claimed the request.
	taken bool

	done   chan struct{}
	out    [][]float32
	err    error
	doneAt time.Duration
}

// Latency reports enqueue-to-delivery virtual time; valid after Wait.
func (p *Pending) Latency() time.Duration { return p.doneAt - p.enq }

// TraceID returns the request's flight-recorder trace ID (0 when
// untraced), letting outer layers — the fleet router — tag their own
// events onto the same per-call timeline.
func (p *Pending) TraceID() uint64 { return p.tid }

// Submit enqueues items (each of the model's input width) as one request
// and returns a Pending handle. It fails fast with ErrBackpressure when the
// client is at depth or lakeShm cannot stage the request. If the submission
// fills the batch to MaxBatch items, the flush runs on this goroutine
// before Submit returns.
func (c *Client) Submit(modelName string, items [][]float32) (*Pending, error) {
	b := c.b
	m, err := b.model(modelName)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("batcher: empty request")
	}
	if len(items) > m.mc.MaxBatch {
		return nil, fmt.Errorf("batcher: request of %d items exceeds model max %d", len(items), m.mc.MaxBatch)
	}
	for _, x := range items {
		if len(x) != m.mc.InputWidth {
			return nil, fmt.Errorf("batcher: item width %d, want %d", len(x), m.mc.InputWidth)
		}
	}
	if c.outstanding.Add(1) > int64(b.cfg.ClientDepth) {
		c.outstanding.Add(-1)
		b.rejected.Add(1)
		b.tel.Rejects.Inc()
		return nil, ErrBackpressure
	}
	p, err := c.stage(m, items)
	if err != nil {
		c.outstanding.Add(-1)
		b.rejected.Add(1)
		b.tel.Rejects.Inc()
		return nil, err
	}
	b.requests.Add(1)
	b.items.Add(int64(p.count))

	if b.rec.Enabled() {
		p.tid = b.rec.NextTraceID()
	}

	m.mu.Lock()
	p.seq = m.nextSeq
	m.nextSeq++
	p.enq = b.rt.Clock().Now()
	m.queue = append(m.queue, p)
	m.queuedItems += p.count
	b.tel.QueueDepth.Add(int64(p.count))
	b.rec.Emit(flightrec.DomainBatcher, flightrec.EvEnqueue,
		p.tid, p.seq, 0, uint64(p.count), 0, 0)

	var batch []*Pending
	var formedAt time.Duration
	reason := flushFull
	full := m.queuedItems >= b.cfg.MaxBatch
	overdue := p.enq >= m.queue[0].enq+b.cfg.MaxWait
	if full || overdue {
		formedAt = p.enq
		if overdue {
			// Another model's activity pushed the clock past our oldest
			// deadline while no waiter was driving; honor it now. The
			// max-wait timer would have formed this batch at the deadline,
			// even if it has filled since.
			formedAt, reason = m.queue[0].enq+b.cfg.MaxWait, flushDeadline
		}
		batch = m.takeLocked()
	}
	if full && m.fullSig != nil {
		close(m.fullSig) // wake a lingering leader; it will find its request taken
		m.fullSig = nil
	}
	m.mu.Unlock()
	if batch != nil {
		b.execute(m, batch, reason, formedAt)
	}
	return p, nil
}

// stage reserves the request's lakeShm slices and writes the input items.
// Allocation failure is backpressure: the region drains as in-flight
// requests complete.
func (c *Client) stage(m *model, items [][]float32) (*Pending, error) {
	region := c.b.rt.Region()
	inBytes := int64(4 * m.mc.InputWidth * len(items))
	outBytes := int64(4 * m.mc.OutputWidth * len(items))
	inBuf, err := region.Alloc(inBytes)
	if err != nil {
		return nil, ErrBackpressure
	}
	outBuf, err := region.Alloc(outBytes)
	if err != nil {
		region.Free(inBuf)
		return nil, ErrBackpressure
	}
	flat := make([]float32, 0, m.mc.InputWidth*len(items))
	for _, x := range items {
		flat = append(flat, x...)
	}
	if err := cuda.PutFloat32s(inBuf.Bytes(), flat); err != nil {
		region.Free(inBuf)
		region.Free(outBuf)
		return nil, err
	}
	return &Pending{
		m: m, c: c, count: len(items),
		inBuf: inBuf, outBuf: outBuf,
		done: make(chan struct{}),
	}, nil
}

// Infer is Submit followed by Wait.
func (c *Client) Infer(modelName string, items [][]float32) ([][]float32, error) {
	p, err := c.Submit(modelName, items)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// takeLocked claims the FIFO prefix of the queue that fits the model's
// staging capacity. Caller holds m.mu.
func (m *model) takeLocked() []*Pending {
	if len(m.queue) == 0 {
		return nil
	}
	items := 0
	n := 0
	for _, p := range m.queue {
		if items+p.count > m.mc.MaxBatch {
			break
		}
		items += p.count
		n++
	}
	if n == 0 {
		return nil
	}
	batch := make([]*Pending, n)
	copy(batch, m.queue[:n])
	m.queue = append(m.queue[:0], m.queue[n:]...)
	m.queuedItems -= items
	m.b.tel.QueueDepth.Add(-int64(items))
	for _, p := range batch {
		p.taken = true
	}
	return batch
}
