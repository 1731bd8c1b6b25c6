package main

import (
	"fmt"
	"time"

	"lakego/internal/flightrec"
)

// ledgerRow is one layer's wall nanoseconds per call in the traced pass.
type ledgerRow struct {
	layer, source string
	ns            float64
}

// ledger prints the rows with their shares of the traced wall per call and
// returns the unattributed remainder as a share. Rows measured by spans
// and rows priced from isolated costs times counted calls add up, with the
// remainder, to the traced wall per call.
func ledger(res *result, perCall float64, rows []ledgerRow) float64 {
	rest := perCall
	for _, r := range rows {
		rest -= r.ns
	}
	for _, r := range append(rows, ledgerRow{"unattributed", "traced wall minus the rows above", rest}) {
		res.extra = append(res.extra, line{name: "ledger." + r.layer, unit: "ns", clock: wallClock, value: r.ns,
			note: fmt.Sprintf("%5.1f%% of %.0f ns traced wall per call; %s", 100*r.ns/perCall, perCall, r.source)})
	}
	return rest / perCall
}

// setStages reports the stitched flight-recorder stage means, per call.
func setStages(m map[string]float64, st flightrec.StageMeans) {
	m["stage.queue_us"] = st.QueueNS / 1e3
	m["stage.exec_us"] = st.ExecNS / 1e3
	m["stage.copy_us"] = st.CopyNS / 1e3
	m["stage.boundary_us"] = st.BoundaryNS / 1e3
}

// traced is the per-layer pass of a closed-loop workload, made after the
// same warm-up as the timed pass:
//  1. an untraced third of the run counts calls into each layer and gives
//     the untraced wall per call;
//  2. a traced third times each subsystem call and, after it, the same
//     call sequence replayed through remoting.Lib with a span per step;
//  3. isolated per-layer costs price the layers the spans cannot reach.
func (c *closedRun) traced() error {
	rt := c.rt
	rec := rt.FlightRecorder()
	third := c.cfg.duration() / 3
	items := float64(c.w.items)
	m := c.res.metrics

	rp, err := newReplay(rt, c.net, c.w.items)
	if err != nil {
		return err
	}

	before := readCounters(rec, rt)
	v0 := rt.Clock().Now()
	t0 := time.Now()
	calls := 0
	for calls == 0 || time.Since(t0) < third {
		if _, _, err := c.call(); err != nil {
			return err
		}
		calls++
	}
	untracedPerCall := float64(time.Since(t0)) / float64(calls)
	d := readCounters(rec, rt).sub(before)
	infers := float64(calls) * items
	callsPerCall := float64(d.calls) / float64(calls)
	m["remoting.calls_per_infer"] = float64(d.calls) / infers
	m["remoting.retries"] = float64(d.retries)
	m["boundary.vns_per_call"] = float64(d.channel) / float64(d.calls)
	m["boundary.wakes_per_call"] = float64(d.wakes) / float64(d.calls)
	c.res.extra = append(c.res.extra, line{name: "boundary.doorbell_per_call", unit: "count", clock: noClock,
		value: float64(d.rings) / float64(d.calls),
		note:  fmt.Sprintf("rings per call; wakes %.3f, coalesced %.3f per call", float64(d.wakes)/float64(d.calls), float64(d.coalesced)/float64(d.calls))})
	eventsPerCall := float64(d.events) / float64(calls)
	m["flightrec.events_per_infer"] = eventsPerCall / items
	if d.events > 0 {
		m["flightrec.dropped_frac"] = float64(d.dropped) / float64(d.events)
	}
	observesPerCall := float64(d.observes) / float64(calls)
	m["telemetry.observes_per_infer"] = observesPerCall / items
	m["shm.bytes_per_infer"] = float64(d.copyBytes) / infers

	// Two isolated devices with the workload's device step, one empty and
	// one carrying the horizon's worth of its busy spans at its launch
	// interval. One step of each runs after every traced call, so the
	// isolated costs are taken under the same host conditions as the spans.
	shape := launchShape{
		inBytes: 4 * c.w.items * rp.width, outBytes: 8 * c.w.items,
		flops:    items * c.net.Flops(),
		interval: (rt.Clock().Now() - v0) / time.Duration(max(d.launches, 1)),
	}
	history := utilizationHorizon
	if c.cfg.tiny {
		history = 50 * time.Millisecond
	}
	stepEmpty, err := launchStepper(shape, 0)
	if err != nil {
		return err
	}
	stepFull, err := launchStepper(shape, history)
	if err != nil {
		return err
	}
	var emptyDurs, fullDurs []time.Duration

	tr := newTracer()
	t0 = time.Now()
	for n := 0; n == 0 || time.Since(t0) < third; n++ {
		k := c.next % len(c.inputs)
		s := tr.begin(spanClient, -1)
		_, _, err := c.call()
		tr.end(s)
		if err != nil {
			return err
		}
		dec, err := rp.run(c.inputs[k], tr)
		c.res.attempted += int64(c.w.items)
		if err != nil {
			c.res.failed += int64(c.w.items)
			return fmt.Errorf("replay: %w", err)
		}
		c.check(k, dec)
		de, err := stepEmpty()
		if err != nil {
			return err
		}
		df, err := stepFull()
		if err != nil {
			return err
		}
		emptyDurs, fullDurs = append(emptyDurs, de), append(fullDurs, df)
	}
	st := tr.byName()
	path, err := tr.write(c.w.name, c.cfg.seed)
	if err != nil {
		return err
	}

	// Allocations per Lib call, counted around CuMemcpyHtoDShm calls alone.
	allocCalls := 200
	if c.cfg.tiny {
		allocCalls = 20
	}
	var allocs uint64
	lib := rt.Lib()
	for i := 0; i < allocCalls; i++ {
		a := mallocs()
		lib.CuMemcpyHtoDShm(rp.devIn, rp.inBuf, int64(4*c.w.items*rp.width))
		allocs += mallocs() - a
	}
	m["remoting.allocs_per_call"] = float64(allocs) / float64(allocCalls)

	stages := flightrec.MeasureStages(flightrec.Stitch(rec.Snapshot("perfbench")).Timelines)
	setStages(m, stages)
	m["gpu.vns_per_infer"] = (stages.ExecNS + stages.CopyNS) * callsPerCall / items
	// A window no wider than the default history, so the query does not
	// itself deepen the span history the device keeps.
	m["gpu.util"] = rt.Device().Utilization(min(utilizationHorizon, rt.Clock().Now()), "")

	for api, name := range map[string]string{spanHtoD: "htod", spanLaunch: "launch", spanDtoH: "dtoh"} {
		if lt := st[api]; lt != nil {
			m["remoting.call_p50_ns."+name] = float64(quantileDur(lt.durs, 0.50))
			m["remoting.call_p99_ns."+name] = float64(quantileDur(lt.durs, 0.99))
		}
	}

	// Isolated per-layer costs.
	budget := 250 * time.Millisecond
	if c.cfg.tiny {
		budget = 25 * time.Millisecond
	}
	codec := codecNS(c.w.items, rp.width, budget)
	emit := emitNS(budget)
	observe := observeNS(budget)
	ping, err := pingNS(budget)
	if err != nil {
		return err
	}
	var flat [][]float32
	for _, b := range c.inputs {
		flat = append(flat, b...)
	}
	forward := nnForwardNS(c.net, flat, budget)
	launchEmpty := float64(quantileDur(emptyDurs, 0.5))
	launchFull := float64(quantileDur(fullDurs, 0.5))
	m["remoting.codec_ns"] = codec
	m["flightrec.emit_ns"] = emit
	m["telemetry.observe_ns"] = observe
	m["boundary.ping_ns"] = ping
	m["nn.forward_ns_per_item"] = forward
	m["gpu.launch_ns.empty"] = launchEmpty
	m["gpu.launch_ns.full"] = launchFull
	// A device prunes its span history only once its clock is past the
	// horizon: before that, the ledger prices launches at the empty-device
	// cost.
	launchHere := launchFull
	if rt.Clock().Now() < history {
		launchHere = launchEmpty
	}

	// The ledger, per subsystem call.
	tracedPerCall := float64(st[spanClient].mean())
	shmNS := float64(st[spanStage].mean() + st[spanRead].mean())
	replayed := shmNS + float64(st[spanHtoD].mean()+st[spanLaunch].mean()+st[spanDtoH].mean())
	client := tracedPerCall - replayed
	nnNS := forward * items
	rows := []ledgerRow{
		{c.w.name, "client span minus its replayed steps", client},
		{"shm", "shm.stage + shm.read spans", shmNS},
		{"remoting.codec", fmt.Sprintf("isolated codec x %.1f calls", callsPerCall), codec * callsPerCall},
		{"boundary", fmt.Sprintf("isolated ping round trip x %.1f calls", callsPerCall), ping * callsPerCall},
		{"flightrec", fmt.Sprintf("isolated Emit x %.1f events", eventsPerCall), emit * eventsPerCall},
		{"telemetry", fmt.Sprintf("isolated observe+add x %.1f observations", observesPerCall), observe * observesPerCall},
		{"cuda/gpu", fmt.Sprintf("isolated copy+launch+copy, device clock at %.2f virtual s (horizon %.0f s)", rt.Clock().Now().Seconds(), history.Seconds()), launchHere},
		{"nn", fmt.Sprintf("isolated Forward x %d items", c.w.items), nnNS},
	}
	m["trace.unattributed_frac"] = ledger(c.res, tracedPerCall, rows)
	m["trace.overhead_frac"] = tracedPerCall/untracedPerCall - 1
	m["client.self_ns_per_infer"] = client / items
	m["shm.stage_ns_per_infer"] = shmNS / items
	m["nn.wall_share"] = nnNS / tracedPerCall
	c.res.extra = append(c.res.extra, line{name: "spans", unit: "count", clock: noClock, value: float64(len(tr.spans)), note: "written to " + path})
	return nil
}
