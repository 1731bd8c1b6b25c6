package main

import (
	"errors"
	"time"

	"lakego/internal/boundary"
	"lakego/internal/core"
	"lakego/internal/cuda"
	"lakego/internal/flightrec"
	"lakego/internal/gpu"
	"lakego/internal/nn"
	"lakego/internal/remoting"
	"lakego/internal/shm"
	"lakego/internal/telemetry"
	"lakego/internal/vtime"
)

// counters is a snapshot of the counts the runtime's modules expose through
// their public accessors; the difference of two snapshots counts the calls
// into each layer between them.
type counters struct {
	calls     int64         // remoted calls (lakeLib)
	channel   time.Duration // modelled boundary time charged to them
	retries   int64         // lakeLib retries plus lakeD redeliveries
	rings     uint64        // doorbell rings (ring transport only)
	wakes     uint64        // doorbell wakes delivered to a parked waiter
	coalesced uint64        // doorbell rings absorbed by a pending wake
	events    uint64        // flight-recorder events emitted
	dropped   uint64        // flight-recorder events lost
	observes  int64         // telemetry histogram observations
	copyBytes int64         // bytes the device model copied in or out
	launches  int64         // device executions (one busy span each)
}

func (a counters) plus(b counters) counters {
	return counters{
		calls: a.calls + b.calls, channel: a.channel + b.channel, retries: a.retries + b.retries,
		rings: a.rings + b.rings, wakes: a.wakes + b.wakes, coalesced: a.coalesced + b.coalesced, events: a.events + b.events, dropped: a.dropped + b.dropped,
		observes: a.observes + b.observes, copyBytes: a.copyBytes + b.copyBytes, launches: a.launches + b.launches,
	}
}

func (a counters) sub(b counters) counters {
	return counters{
		calls: a.calls - b.calls, channel: a.channel - b.channel, retries: a.retries - b.retries,
		rings: a.rings - b.rings, wakes: a.wakes - b.wakes, coalesced: a.coalesced - b.coalesced, events: a.events - b.events, dropped: a.dropped - b.dropped,
		observes: a.observes - b.observes, copyBytes: a.copyBytes - b.copyBytes, launches: a.launches - b.launches,
	}
}

func readCounters(rec *flightrec.Recorder, rts ...*core.Runtime) counters {
	var c counters
	for _, rt := range rts {
		st := rt.Stats()
		c.calls += st.RemotedCalls
		c.channel += st.ChannelTime
		c.retries += st.DaemonRedelivered + rt.Lib().ResilienceStats().Retries
		c.launches += st.KernelLaunches
		if ring, ok := rt.Transport().(*boundary.RingTransport); ok {
			rings, wakes, coalesced := ring.DoorbellStats()
			c.rings += rings
			c.wakes += wakes
			c.coalesced += coalesced
		}
		for _, h := range rt.Telemetry().Snapshot().Histograms {
			c.observes += h.Count
		}
		for _, d := range rt.Pool().Devices() {
			_, b := d.Copies()
			c.copyBytes += b
		}
	}
	c.events = recorderEvents(rec)
	c.dropped = rec.Dropped()
	return c
}

// recorderEvents counts every event the recorder has emitted, by tailing
// all its rings to the head: a tail cursor's positions count the events
// consumed plus those skipped.
func recorderEvents(rec *flightrec.Recorder) uint64 {
	if rec == nil {
		return 0
	}
	var cur flightrec.TailCursor
	buf := make([]flightrec.Event, 4096)
	for {
		n, next, _ := rec.TailInto(cur, buf)
		cur = next
		if n == 0 {
			break
		}
	}
	var total uint64
	for d := flightrec.Domain(0); d <= flightrec.DomainLifecycle; d++ {
		total += cur.Position(d)
	}
	return total
}

// perOp times op in rounds of at least budget/5 each and returns the median
// round's nanoseconds per call.
func perOp(budget time.Duration, op func()) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < budget/5 {
			for i := 0; i < 64; i++ {
				op()
			}
			n += 64
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(n))
	}
	return median(rounds)
}

// codecNS is the isolated cost of one remoted call's frames: encode and
// decode of the command and of its response, averaged over the workload's
// three Lib calls (traced frames, as the recorder is on).
func codecNS(items, width int, budget time.Duration) float64 {
	n := uint64(4 * items * width)
	cmds := []remoting.Command{
		{API: remoting.APICuMemcpyHtoD, Seq: 1, TraceID: 11, Args: []uint64{1 << 40, 4096, n, 1}},
		{API: remoting.APICuLaunchKernel, Seq: 2, TraceID: 12, Args: []uint64{1, 2, 1 << 40, 1<<40 + n, uint64(items)}},
		{API: remoting.APICuMemcpyDtoH, Seq: 3, TraceID: 13, Args: []uint64{1<<40 + n, 8192, uint64(8 * items), 1}},
	}
	resp := remoting.Response{Seq: 1}
	names := map[string]string{}
	var cbuf, rbuf []byte
	var dc remoting.Command
	var dr remoting.Response
	k := 0
	return perOp(budget, func() {
		c := &cmds[k%len(cmds)]
		k++
		var err error
		if cbuf, err = remoting.AppendCommand(cbuf[:0], c); err != nil {
			panic(err) // fixed, valid frames: a failure is a codec bug
		}
		if err = remoting.DecodeCommandInto(&dc, names, cbuf); err != nil {
			panic(err)
		}
		resp.Seq = c.Seq
		if rbuf, err = remoting.AppendResponse(rbuf[:0], &resp); err != nil {
			panic(err)
		}
		if err = remoting.DecodeResponseInto(&dr, rbuf); err != nil {
			panic(err)
		}
	})
}

// emitNS is the isolated cost of one flight-recorder Emit.
func emitNS(budget time.Duration) float64 {
	rec := flightrec.New(vtime.New(), 0)
	rec.SetEnabled(true)
	var seq uint64
	return perOp(budget, func() {
		seq++
		rec.Emit(flightrec.DomainKernel, flightrec.EvCallStart, seq, seq, 0, uint64(remoting.APICuLaunchKernel), 0, 0)
	})
}

// observeNS is the isolated cost of one histogram observation plus one
// counter add, the pair each instrumented step performs.
func observeNS(budget time.Duration) float64 {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("perfbench_latency_ns", "isolated observe", telemetry.DefaultLatencyBuckets())
	c := reg.Counter("perfbench_total", "isolated add")
	var v int64
	return perOp(budget, func() {
		v = (v + 7919) % 5_000_000
		h.Observe(v)
		c.Add(1)
	})
}

// pingNS is one boundary round trip of the ring transport on a runtime with
// no telemetry or recorder: stub, small-frame codec, ring and doorbell, lakeD
// dispatch and the response.
func pingNS(budget time.Duration) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.Channel = boundary.Ring
	cfg.DisableTelemetry = true
	rt, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	lib := rt.Lib()
	ok := true
	ns := perOp(budget, func() {
		if _, _, good := lib.Ping(); !good {
			ok = false
		}
	})
	if !ok {
		return 0, errPing
	}
	return ns, nil
}

var errPing = errors.New("isolated ping failed")

// nnForwardNS is the isolated cost of one nn.Forward on the workload's
// network and inputs.
func nnForwardNS(net *nn.Network, inputs [][]float32, budget time.Duration) float64 {
	k := 0
	return perOp(budget, func() {
		net.Forward(inputs[k%len(inputs)])
		k++
	})
}

// stageNSPerByte is the isolated cost of staging float32 inputs into a
// lakeShm buffer, per byte.
func stageNSPerByte(bytes int, budget time.Duration) (float64, error) {
	region, err := shm.NewRegion(int64(bytes) + 4096)
	if err != nil {
		return 0, err
	}
	buf, err := region.Alloc(int64(bytes))
	if err != nil {
		return 0, err
	}
	vals := make([]float32, bytes/4)
	for i := range vals {
		vals[i] = float32(i)
	}
	ns := perOp(budget, func() {
		if err := cuda.PutFloat32s(buf.Bytes(), vals); err != nil {
			panic(err) // sized above: a failure is a bug
		}
	})
	return ns / float64(bytes), nil
}

// launchShape is one device step of a workload: the bytes copied in and
// out around one kernel launch of flops, and the virtual time between the
// starts of consecutive steps.
type launchShape struct {
	inBytes, outBytes int
	flops             float64
	interval          time.Duration
}

// launchStepper is a fresh gpu.Device driven through cuda.API with one
// workload step per call of step: copy in, launch a timing-only kernel (so
// no nn work is included), copy out. With history > 0 the device first
// carries that much virtual time of the workload's busy spans, laid down at
// the workload's launch interval; each step keeps that interval, so the
// history stays at its steady length. step returns the step's wall time.
func launchStepper(s launchShape, history time.Duration) (step func() (time.Duration, error), err error) {
	clock := vtime.New()
	api := cuda.NewAPI(gpu.New(gpu.DefaultSpec(), clock))
	if r := api.Init(); r != cuda.Success {
		return nil, r.Err()
	}
	api.RegisterKernel(&cuda.Kernel{Name: "perfbench_step", Flops: func([]uint64) float64 { return s.flops }})
	ctx, r := api.CtxCreate("perfbench")
	if r != cuda.Success {
		return nil, r.Err()
	}
	mod, r := api.ModuleLoad("perfbench.cubin")
	if r != cuda.Success {
		return nil, r.Err()
	}
	fn, r := api.ModuleGetFunction(mod, "perfbench_step")
	if r != cuda.Success {
		return nil, r.Err()
	}
	in, r := api.MemAlloc(int64(s.inBytes))
	if r != cuda.Success {
		return nil, r.Err()
	}
	out, r := api.MemAlloc(int64(s.outBytes))
	if r != cuda.Success {
		return nil, r.Err()
	}
	src := make([]byte, s.inBytes)
	dst := make([]byte, s.outBytes)
	args := []uint64{uint64(in), uint64(out), 1}
	step = func() (time.Duration, error) {
		t0, v0 := time.Now(), clock.Now()
		if r := api.MemcpyHtoD(in, src); r != cuda.Success {
			return 0, r.Err()
		}
		if r := api.LaunchKernel(ctx, fn, args); r != cuda.Success {
			return 0, r.Err()
		}
		if r := api.MemcpyDtoH(dst, out); r != cuda.Success {
			return 0, r.Err()
		}
		d := time.Since(t0)
		if gap := s.interval - (clock.Now() - v0); gap > 0 {
			clock.Advance(gap)
		}
		return d, nil
	}
	for clock.Now() < history {
		if _, err := step(); err != nil {
			return nil, err
		}
	}
	return step, nil
}

// launchNS runs steps back to back and returns the median step in ns.
func launchNS(s launchShape, history time.Duration, steps int) (float64, error) {
	step, err := launchStepper(s, history)
	if err != nil {
		return 0, err
	}
	durs := make([]time.Duration, steps)
	for i := range durs {
		if durs[i], err = step(); err != nil {
			return 0, err
		}
	}
	return float64(quantileDur(durs, 0.5)), nil
}
