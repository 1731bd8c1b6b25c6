package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/gpu"
	"lakego/internal/linnos"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/sched"
	"lakego/internal/shm"
)

// Closed-loop workloads: one client goroutine calls one subsystem's LAKE
// path back to back. Both run on core.DefaultConfig() with the ring
// transport; telemetry and the flight recorder stay on, as shipped.

// utilizationHorizon is how much busy-span history a gpu.Device keeps by
// default. mllb-sync is timed only once the device clock is past it, so the
// steady state (history at its full length) is measured, not the warm-up.
const utilizationHorizon = 5 * time.Second

// subsystem is one booted subsystem client: its LAKE call and its CPU
// reference path.
type subsystem struct {
	lake func(batch [][]float32) ([]bool, time.Duration, error)
	cpu  func(batch [][]float32) []bool
}

type closedWorkload struct {
	name   string
	sizes  []int // network shape
	items  int   // inferences per call
	pool   int   // distinct input batches, cycled
	budget time.Duration
	// horizon: warm up until the device clock passes utilizationHorizon.
	horizon bool
	item    func(rng *rand.Rand) []float32
	attach  func(rt *core.Runtime, net *nn.Network) (subsystem, error)
}

var mllbSync = closedWorkload{
	name:  "mllb-sync",
	sizes: mllb.Sizes(),
	items: 1,
	pool:  4096,
	// The p99 budget loadgen.Smoke gives its mllb class.
	budget:  5 * time.Millisecond,
	horizon: true,
	item: func(rng *rand.Rand) []float32 {
		src := rng.Intn(32) + 1
		dst := rng.Intn(8)
		f := sched.Features{
			SrcQueueLen: src, DstQueueLen: dst,
			SrcLoad: float64(src) * (0.5 + rng.Float64()), DstLoad: float64(dst) * (0.5 + rng.Float64()),
			TaskRemaining: time.Duration(rng.Intn(50_000)) * time.Microsecond,
			TaskWeight:    1 + rng.Intn(3),
			CacheHot:      rng.Intn(2) == 0,
			SameNode:      rng.Intn(3) == 0,
			Imbalance:     rng.Float64(),
		}
		return f.Vector()
	},
	attach: func(rt *core.Runtime, net *nn.Network) (subsystem, error) {
		b, err := mllb.New(rt, net)
		if err != nil {
			return subsystem{}, err
		}
		return subsystem{
			lake: func(x [][]float32) ([]bool, time.Duration, error) { return b.ClassifyLAKE(x, true) },
			cpu: func(x [][]float32) []bool {
				d, _ := b.ClassifyCPU(x)
				return d
			},
		}, nil
	},
}

var linnosBulk = closedWorkload{
	name:  "linnos-bulk",
	sizes: linnos.Base.Sizes(),
	items: linnos.MaxBatch,
	pool:  8,
	// The p99 budget loadgen.Smoke gives its linnos class.
	budget: 4 * time.Millisecond,
	item: func(rng *rand.Rand) []float32 {
		recent := make([]time.Duration, 4)
		for i := range recent {
			recent[i] = time.Duration(50+rng.Intn(8000)) * time.Microsecond
		}
		return linnos.FeatureVector(rng.Intn(64), recent)
	},
	attach: func(rt *core.Runtime, net *nn.Network) (subsystem, error) {
		p, err := linnos.NewPredictor(rt, linnos.Base, net)
		if err != nil {
			return subsystem{}, err
		}
		return subsystem{
			lake: func(x [][]float32) ([]bool, time.Duration, error) { return p.InferLAKE(x, true) },
			cpu: func(x [][]float32) []bool {
				d, _ := p.InferCPU(x)
				return d
			},
		}, nil
	},
}

func runMLLBSync(cfg runConfig) (*result, error)   { return runClosed(&mllbSync, cfg) }
func runLinnOSBulk(cfg runConfig) (*result, error) { return runClosed(&linnosBulk, cfg) }

// setupOnce times one set-up: boot the runtime and attach the subsystem
// (kernel registration, context, module, device and shm allocations).
func (w *closedWorkload) setupOnce(cfg runConfig) (time.Duration, error) {
	net := nn.New(cfg.seed, w.sizes...)
	t0 := time.Now()
	rt, _, err := w.boot(net)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	rt.Close()
	return d, nil
}

func (w *closedWorkload) boot(net *nn.Network) (*core.Runtime, subsystem, error) {
	rcfg := core.DefaultConfig()
	rcfg.Channel = boundary.Ring
	rt, err := core.New(rcfg)
	if err != nil {
		return nil, subsystem{}, err
	}
	sub, err := w.attach(rt, net)
	if err != nil {
		rt.Close()
		return nil, subsystem{}, err
	}
	return rt, sub, nil
}

// closedRun is one closed-loop run in progress.
type closedRun struct {
	w      *closedWorkload
	cfg    runConfig
	res    *result
	net    *nn.Network
	rt     *core.Runtime
	sub    subsystem
	inputs [][][]float32
	ref    [][]bool
	next   int
}

// call runs the next input through the LAKE path and checks every
// decision against the CPU reference.
func (c *closedRun) call() (wall, virt time.Duration, err error) {
	k := c.next % len(c.inputs)
	c.next++
	t0 := time.Now()
	dec, vd, err := c.sub.lake(c.inputs[k])
	wall = time.Since(t0)
	c.res.attempted += int64(c.w.items)
	if err != nil {
		c.res.failed += int64(c.w.items)
		return 0, 0, fmt.Errorf("%s call %d: %w", c.w.name, c.next, err)
	}
	c.check(k, dec)
	return wall, vd, nil
}

func (c *closedRun) check(k int, dec []bool) {
	want := c.ref[k]
	if len(dec) != len(want) {
		c.res.failed += int64(len(want)) - 1
		c.res.fail("input %d: %d decisions, want %d", k, len(dec), len(want))
		return
	}
	for i := range want {
		if dec[i] != want[i] {
			c.res.fail("input %d item %d: LAKE decision %v, CPU path %v", k, i, dec[i], want[i])
		}
	}
}

func runClosed(w *closedWorkload, cfg runConfig) (*result, error) {
	c := &closedRun{w: w, cfg: cfg, res: &result{metrics: map[string]float64{}}}
	rng := rand.New(rand.NewSource(cfg.seed))
	c.net = nn.New(cfg.seed, w.sizes...)
	c.inputs = make([][][]float32, w.pool)
	for i := range c.inputs {
		batch := make([][]float32, w.items)
		for j := range batch {
			batch[j] = w.item(rng)
		}
		c.inputs[i] = batch
	}

	// Reference decisions come from the CPU path of a separate runtime, so
	// its clock charges never touch the measured one.
	refRT, refSub, err := w.boot(c.net)
	if err != nil {
		return nil, err
	}
	c.ref = make([][]bool, len(c.inputs))
	for i, in := range c.inputs {
		c.ref[i] = refSub.cpu(in)
	}
	refRT.Close()

	c.rt, c.sub, err = w.boot(c.net)
	if err != nil {
		return nil, err
	}
	defer c.rt.Close()

	// Warm-up: the same traffic, untimed.
	warm := 3
	for k := 0; k < warm || (w.horizon && !cfg.tiny && c.rt.Clock().Now() < utilizationHorizon+50*time.Millisecond); k++ {
		if _, _, err := c.call(); err != nil {
			return nil, err
		}
	}
	c.res.extra = append(c.res.extra, line{name: "warmup_vclock_s", unit: "vs", clock: virtualClock,
		value: c.rt.Clock().Now().Seconds(), note: "device clock when timing starts"})

	if cfg.trace {
		if err := c.traced(); err != nil {
			return nil, err
		}
		return c.res, nil
	}
	return c.res, c.timed()
}

// timed is the end-to-end pass: cfg.seconds of back-to-back calls in
// windows of about two seconds (at least five), each priced separately;
// wall metrics are medians over windows.
func (c *closedRun) timed() error {
	dur := c.cfg.duration()
	windows := max(5, int(c.cfg.seconds/2))
	lat := make([]time.Duration, 0, 1<<18)
	virt := make([]time.Duration, 0, 1<<18)
	v0 := c.rt.Clock().Now()
	start := takeMark()
	prev := start
	var ws []window
	for k := 1; k <= windows; k++ {
		end := start.wall.Add(dur * time.Duration(k) / time.Duration(windows))
		from := len(lat)
		for n := 0; n == 0 || time.Now().Before(end); n++ {
			wall, vd, err := c.call()
			if err != nil {
				return err
			}
			lat = append(lat, wall)
			virt = append(virt, vd)
		}
		m := takeMark()
		win := between(prev, m, int64((len(lat)-from)*c.w.items))
		win.lat = lat[from:]
		ws = append(ws, win)
		prev = m
	}
	velapsed := c.rt.Clock().Now() - v0
	rss := peakRSSMB()

	var within int
	for _, v := range virt {
		if v <= c.w.budget {
			within++
		}
	}
	m := c.res.metrics
	m["infer_per_s"] = medianOf(ws, window.inferPerS)
	m["cpu_us_per_infer"] = medianOf(ws, window.cpuUSPerInfer)
	m["allocs_per_infer"] = medianOf(ws, window.allocsPerInfer)
	m["wall_p50_us"] = medianOf(ws, func(w window) float64 { return us(quantileDur(w.lat, 0.50)) })
	m["wall_p90_us"] = medianOf(ws, func(w window) float64 { return us(quantileDur(w.lat, 0.90)) })
	p99 := medianOf(ws, func(w window) float64 { return us(quantileDur(w.lat, 0.99)) })
	m["v_p50_us"] = us(quantileDur(virt, 0.50))
	m["v_p99_us"] = us(quantileDur(virt, 0.99))
	m["attainment"] = float64(within) / float64(len(virt))
	m["goodput_vps"] = float64(len(virt)*c.w.items) / velapsed.Seconds()
	m["peak_rss_mb"] = rss
	var perWindow []string
	for _, w := range ws {
		perWindow = append(perWindow, fmt.Sprintf("%.0f", w.inferPerS()))
	}
	c.res.extra = append(c.res.extra,
		line{name: "windows", unit: "count", clock: wallClock, value: float64(len(ws)), note: "infer_per_s by window: " + strings.Join(perWindow, " ")},
		line{name: "wall_p99_us", unit: "us", clock: wallClock, value: p99,
			note: "median over windows of the window's p99; printed, not gated (see NOTES.md)"},
		line{name: "failed_frac", unit: "ratio", clock: noClock, value: float64(c.res.failed) / float64(c.res.attempted),
			note: "errors and wrong decisions over attempted inferences"},
		line{name: "calls", unit: "count", clock: noClock, value: float64(len(lat)),
			note: fmt.Sprintf("timed calls of %d items in %d windows", c.w.items, windows)})
	return nil
}

// replay is the benchmark's own copy of the subsystem's call sequence,
// issued through remoting.Lib against the same runtime so each Lib call can
// be timed: stage the inputs in shm, copy in, launch, copy out, read back.
type replay struct {
	rt            *core.Runtime
	items, width  int
	ctx, fn       uint64
	devIn, devOut gpu.DevPtr
	inBuf, outBuf *shm.Buffer
	flat          []float32
}

func newReplay(rt *core.Runtime, net *nn.Network, items int) (*replay, error) {
	sizes := net.Sizes()
	width, outW := sizes[0], sizes[len(sizes)-1]
	name := fmt.Sprintf("perfbench_replay_%d", items)
	flops := net.Flops()
	rt.RegisterKernel(&cuda.Kernel{
		Name:  name,
		Flops: func(args []uint64) float64 { return float64(args[2]) * flops },
		Body: func(dev *gpu.Device, args []uint64) error {
			n := int(args[2])
			in, err := dev.Bytes(gpu.DevPtr(args[0]))
			if err != nil {
				return err
			}
			out, err := dev.Bytes(gpu.DevPtr(args[1]))
			if err != nil {
				return err
			}
			x, err := cuda.Float32s(in, n*width)
			if err != nil {
				return err
			}
			y := make([]float32, 0, n*outW)
			for i := 0; i < n; i++ {
				y = append(y, net.Forward(x[i*width:(i+1)*width])...)
			}
			return cuda.PutFloat32s(out, y)
		},
	})
	lib := rt.Lib()
	r := &replay{rt: rt, items: items, width: width}
	var res cuda.Result
	if r.ctx, res = lib.CuCtxCreate("perfbench"); res != cuda.Success {
		return nil, res.Err()
	}
	mod, res := lib.CuModuleLoad(name + ".cubin")
	if res != cuda.Success {
		return nil, res.Err()
	}
	if r.fn, res = lib.CuModuleGetFunction(mod, name); res != cuda.Success {
		return nil, res.Err()
	}
	if r.devIn, res = lib.CuMemAlloc(int64(4 * items * width)); res != cuda.Success {
		return nil, res.Err()
	}
	if r.devOut, res = lib.CuMemAlloc(int64(4 * items * 2)); res != cuda.Success {
		return nil, res.Err()
	}
	var err error
	if r.inBuf, err = rt.Region().Alloc(int64(4 * items * width)); err != nil {
		return nil, err
	}
	if r.outBuf, err = rt.Region().Alloc(int64(4 * items * 2)); err != nil {
		return nil, err
	}
	r.flat = make([]float32, 0, items*width)
	return r, nil
}

// Replay span names.
const (
	spanClient  = "client"
	spanReplay  = "replay"
	spanStage   = "shm.stage"
	spanRead    = "shm.read"
	spanHtoD    = "remoting.CuMemcpyHtoDShm"
	spanLaunch  = "remoting.CuLaunchKernel"
	spanDtoH    = "remoting.CuMemcpyDtoHShm"
	replayCalls = 3
)

// run replays one batch, recording a span around each step when tr is
// non-nil, and returns the decisions.
func (r *replay) run(batch [][]float32, tr *tracer) ([]bool, error) {
	lib := r.rt.Lib()
	root := tr.begin(spanReplay, -1)
	s := tr.begin(spanStage, root)
	r.flat = r.flat[:0]
	for _, x := range batch {
		r.flat = append(r.flat, x...)
	}
	err := cuda.PutFloat32s(r.inBuf.Bytes(), r.flat)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(spanHtoD, root)
	res := lib.CuMemcpyHtoDShm(r.devIn, r.inBuf, int64(4*len(batch)*r.width))
	tr.end(s)
	if res != cuda.Success {
		return nil, res.Err()
	}
	s = tr.begin(spanLaunch, root)
	res = lib.CuLaunchKernel(r.ctx, r.fn, []uint64{uint64(r.devIn), uint64(r.devOut), uint64(len(batch))})
	tr.end(s)
	if res != cuda.Success {
		return nil, res.Err()
	}
	s = tr.begin(spanDtoH, root)
	res = lib.CuMemcpyDtoHShm(r.outBuf, r.devOut, int64(4*2*len(batch)))
	tr.end(s)
	if res != cuda.Success {
		return nil, res.Err()
	}
	s = tr.begin(spanRead, root)
	out, err := cuda.Float32s(r.outBuf.Bytes(), 2*len(batch))
	dec := make([]bool, len(batch))
	for i := range dec {
		dec[i] = err == nil && out[2*i+1] > out[2*i]
	}
	tr.end(s)
	tr.end(root)
	return dec, err
}
