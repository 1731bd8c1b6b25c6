package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"lakego/internal/core"
	"lakego/internal/fleet"
	"lakego/internal/flightrec"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/loadgen"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/trace"
)

// Open-loop workloads: one loadgen driver goroutine replays a scenario
// against a freshly booted fleet (loadgen.Run). Everything the benchmark
// measures it reads through the scenario's Observer hook, which loadgen
// calls once the fleet, its models, tenants and client population are up
// (so Run-to-hook is the set-up time) and again with the collected result.

type fleetWorkload struct {
	name     string
	scenario func(seed int64, tiny bool) *loadgen.Scenario
	// virtualReplays is how many replays, counted from the first, the
	// virtual-clock metrics are taken from. It is fixed, so those metrics
	// depend only on the seed, never on how many replays the host fits in
	// the measured seconds.
	virtualReplays func(tiny bool) int
	knee           bool
}

// fleetMix is loadgen.Smoke's five-class Table 4 mix on two shards with
// its one 10-ms 2x burst and no churn, stretched past the device's 5-s
// utilization horizon. Churn stays off because it swallows arrivals (see
// NOTES.md). The router keeps Smoke's own seed: tenant placement is
// deployment configuration, and only the arrivals vary with the seed.
func fleetMix(seed int64, tiny bool) *loadgen.Scenario {
	s := loadgen.Smoke()
	s.Name = "fleet-mix"
	s.RouterSeed = s.Seed
	s.Seed = seed
	s.DurationMS = 6500
	s.Bursts = []loadgen.Burst{{AtMS: 2000, DurationMS: 10, Multiplier: 2}}
	if tiny {
		s.DurationMS = 60
		s.Bursts[0].AtMS = 20
	}
	return s
}

// kneeScenario is the fleet-mix shape over a 100-ms window: the knee
// ladder replays it once per rung, so it must be short.
func kneeScenario(seed int64, tiny bool) *loadgen.Scenario {
	s := fleetMix(seed, tiny)
	s.DurationMS = 100
	s.Bursts[0].AtMS = 40
	if tiny {
		s.DurationMS = 20
		s.Bursts[0].AtMS = 5
	}
	return s
}

// kneeLadder is the fixed ladder of rate multipliers knee_x is read from.
var kneeLadder = []float64{1, 1.25, 1.5, 1.75, 2, 2.5, 3}

// fleetStorm is loadgen.Storm's shape: its 10x burst (2 to 8 ms) against a
// fleet cap of 96 and per-class caps, with the window widened from 10 to
// 100 ms so each replay carries enough virtual milliseconds for stable
// tails. As in fleet-mix the router keeps the builtin's seed.
func fleetStorm(seed int64, tiny bool) *loadgen.Scenario {
	s := loadgen.Storm()
	s.Name = "fleet-storm"
	s.RouterSeed = s.Seed
	s.Seed = seed
	if !tiny {
		s.DurationMS = 100
	}
	return s
}

var fleetMixWorkload = fleetWorkload{
	name: "fleet-mix", scenario: fleetMix, knee: true,
	virtualReplays: func(bool) int { return 1 },
}

var fleetStormWorkload = fleetWorkload{
	name: "fleet-storm", scenario: fleetStorm,
	virtualReplays: func(tiny bool) int {
		if tiny {
			return 2
		}
		return 8
	},
}

// setupOnce times one set-up: loadgen.Run up to the Observer hook, which
// it calls once the fleet, its models, tenants and client population are
// up. The replay itself is not needed, so the hook prints the time and
// ends the process (this runs only in the set-up child process).
func (w *fleetWorkload) setupOnce(cfg runConfig) (time.Duration, error) {
	s := w.scenario(replaySeed(cfg.seed, 0), cfg.tiny)
	t0 := time.Now()
	s.Observer = func(*fleet.Fleet) loadgen.RunObserver {
		fmt.Println(time.Since(t0).Seconds())
		os.Exit(0)
		return nil
	}
	if _, err := loadgen.Run(s); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("replay finished without calling its observer")
}

func runFleetMix(cfg runConfig) (*result, error)   { return runFleet(&fleetMixWorkload, cfg) }
func runFleetStorm(cfg runConfig) (*result, error) { return runFleet(&fleetStormWorkload, cfg) }

// replaySeed derives replay i's scenario seed from the run's seed through a
// splitmix64 finalizer. loadgen folds its seed into client IDs by XOR, so
// seeds that differ only in their low bits replay permutations of one
// population (see NOTES.md); hashing gives each run and replay a population
// of its own.
func replaySeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x^(x>>31))>>1) | 1
}

// replay is one loadgen.Run as the benchmark saw it.
type replayRun struct {
	r        *loadgen.Result
	drive    window // from the hook to the collected result: arrivals, drain, collection
	slices   []float64
	layers   counters
	batch    batchTotals
	util     float64
	vclock   time.Duration // summed shard clocks at the end
	launches int64
}

type batchTotals struct {
	items, flushes, deadline, cpu int64
	maxDelay                      time.Duration
	shardRequests                 []int64
}

// replayObserver records one replay from inside loadgen's Observer hook.
type replayObserver struct {
	f      *fleet.Fleet
	rr     *replayRun
	trace  bool
	start  mark
	before counters

	lastWall time.Time
	lastReq  int64
}

func (o *replayObserver) requests() int64 {
	var n int64
	for _, sh := range o.f.Shards() {
		n += sh.Batcher().Stats().Requests
	}
	return n
}

// Tick prices each virtual millisecond: host wall time per request the
// fleet accepted in it.
func (o *replayObserver) Tick(time.Duration) {
	now := time.Now()
	req := o.requests()
	if req > o.lastReq {
		o.rr.slices = append(o.rr.slices, float64(now.Sub(o.lastWall))/float64(time.Microsecond)/float64(req-o.lastReq))
	}
	o.lastWall, o.lastReq = now, req
}

func (o *replayObserver) Done(r *loadgen.Result) {
	end := takeMark()
	o.rr.drive = between(o.start, end, r.Completed)
	if !o.trace {
		return
	}
	o.rr.layers = readCounters(o.f.Recorder(), o.shardRuntimes()...).sub(o.before)
	var util float64
	for _, sh := range o.f.Shards() {
		st := sh.Batcher().Stats()
		b := &o.rr.batch
		b.items += st.Items
		b.flushes += st.Flushes
		b.deadline += st.DeadlineFlushes
		b.cpu += st.CPUFlushes
		b.shardRequests = append(b.shardRequests, st.Requests)
		if st.MaxQueueDelay > b.maxDelay {
			b.maxDelay = st.MaxQueueDelay
		}
		rt := sh.Runtime()
		now := rt.Clock().Now()
		// A window no wider than the default history, so the query does
		// not itself deepen the span history the device keeps.
		util += rt.Device().Utilization(min(utilizationHorizon, now), "")
		o.rr.vclock += now
		o.rr.launches += rt.Stats().KernelLaunches
	}
	o.rr.util = util / float64(len(o.f.Shards()))
}

func (o *replayObserver) shardRuntimes() []*core.Runtime {
	var rts []*core.Runtime
	for _, sh := range o.f.Shards() {
		rts = append(rts, sh.Runtime())
	}
	return rts
}

// runReplay runs one replay of s, measured through the Observer hook. The
// garbage of earlier replays is collected first, so no replay's drive pays
// for another's.
func runReplay(s *loadgen.Scenario, traced bool, tr *tracer) (*replayRun, error) {
	freshHeap()
	rr := &replayRun{}
	root := tr.begin("loadgen.Run", -1)
	setupSpan := tr.begin("setup", root)
	var driveSpan int32
	s.Observer = func(f *fleet.Fleet) loadgen.RunObserver {
		tr.end(setupSpan)
		o := &replayObserver{f: f, rr: rr, trace: traced}
		if traced {
			o.before = readCounters(f.Recorder(), o.shardRuntimes()...)
		}
		driveSpan = tr.begin("drive", root)
		o.start = takeMark()
		o.lastWall = o.start.wall
		return o
	}
	r, err := loadgen.Run(s)
	if err != nil {
		return nil, err
	}
	tr.end(driveSpan)
	tr.end(root)
	rr.r = r
	return rr, nil
}

// checkReplay holds the replay to loadgen's accounting and admission
// invariants: every arrival is completed, shed or failed, and no class's
// in-flight high-water mark exceeds its cap.
func checkReplay(res *result, s *loadgen.Scenario, rr *replayRun) {
	r := rr.r
	res.attempted += r.Arrivals
	res.failed += r.Failed
	for i, c := range r.Classes {
		if c.Arrivals != c.Completed+c.Shed+c.Failed {
			res.fail("seed %d class %s: arrivals %d != completed %d + shed %d + failed %d",
				s.Seed, c.Name, c.Arrivals, c.Completed, c.Shed, c.Failed)
		}
		if lim := int64(s.Tenants[i].MaxOutstanding); lim > 0 && c.PeakOutstanding > lim {
			res.fail("seed %d class %s: peak outstanding %d exceeds cap %d", s.Seed, c.Name, c.PeakOutstanding, lim)
		}
	}
	if r.Failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("seed %d: %d submissions failed", s.Seed, r.Failed))
	}
}

// worstClass returns the largest per-class quantile: the class that sets
// the fleet's latency.
func worstClass(r *loadgen.Result, q func(loadgen.ClassResult) time.Duration) time.Duration {
	var worst time.Duration
	for _, c := range r.Classes {
		if c.Completed > 0 && q(c) > worst {
			worst = q(c)
		}
	}
	return worst
}

func runFleet(w *fleetWorkload, cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	if cfg.trace {
		return res, fleetTraced(w, cfg, res)
	}
	var runs []*replayRun
	start := time.Now()
	for i := 0; i < w.virtualReplays(cfg.tiny) || time.Since(start) < cfg.duration(); i++ {
		s := w.scenario(replaySeed(cfg.seed, i), cfg.tiny)
		rr, err := runReplay(s, false, nil)
		if err != nil {
			return nil, err
		}
		checkReplay(res, s, rr)
		runs = append(runs, rr)
	}
	rss := peakRSSMB()

	var ws []window
	var wall50, wall99, wall90 []float64
	slices := 0
	for _, rr := range runs {
		ws = append(ws, rr.drive)
		wall50 = append(wall50, quantileFloat(rr.slices, 0.50))
		wall99 = append(wall99, quantileFloat(rr.slices, 0.99))
		wall90 = append(wall90, quantileFloat(rr.slices, 0.90))
		slices += len(rr.slices)
	}
	var p50s, p99s []float64
	var arrivals, rejected, shed, within, completed int64
	var velapsed time.Duration
	for _, rr := range runs[:w.virtualReplays(cfg.tiny)] {
		r := rr.r
		p50s = append(p50s, us(worstClass(r, func(c loadgen.ClassResult) time.Duration { return c.P50 })))
		p99s = append(p99s, us(worstClass(r, func(c loadgen.ClassResult) time.Duration { return c.P99 })))
		for _, c := range r.Classes {
			within += c.WithinP99
		}
		completed += r.Completed
		velapsed += r.VirtualElapsed
		arrivals += r.Arrivals
		rejected += r.Rejects
		shed += r.Shed
	}
	m := res.metrics
	m["infer_per_s"] = medianOf(ws, window.inferPerS)
	m["cpu_us_per_infer"] = medianOf(ws, window.cpuUSPerInfer)
	m["allocs_per_infer"] = medianOf(ws, window.allocsPerInfer)
	m["wall_p50_us"] = median(wall50)
	m["wall_p90_us"] = median(wall90)
	m["v_p50_us"] = median(p50s)
	m["v_p99_us"] = median(p99s)
	m["attainment"] = float64(within) / float64(arrivals)
	m["goodput_vps"] = float64(completed) / velapsed.Seconds()
	m["peak_rss_mb"] = rss
	res.extra = append(res.extra,
		line{name: "failed_frac", unit: "ratio", clock: noClock, value: float64(shed+res.failed) / float64(arrivals),
			note: fmt.Sprintf("sheds, admission rejects and errors over arrivals in the virtual replays (%d rejects)", rejected)},
		line{name: "wall_p99_us", unit: "us", clock: wallClock, value: median(wall99),
			note: "median over replays of the replay's slice p99; printed, not gated (see NOTES.md)"},
		line{name: "slo_met", unit: "bool", clock: virtualClock, value: b2f(runs[0].r.SLOMet()),
			note: "whether every class met its SLO in the first replay"},
		line{name: "replays", unit: "count", clock: noClock, value: float64(len(runs)),
			note: fmt.Sprintf("wall metrics: medians over replays; wall_p*_us: each replay's quantile over its virtual-ms slices (host us per accepted request), %d slices in all; virtual metrics: first %d replay(s)", slices, w.virtualReplays(cfg.tiny))})

	if w.knee {
		ks := kneeScenario(replaySeed(cfg.seed, 0), cfg.tiny)
		sw, err := loadgen.Sweep(ks, kneeLadder)
		if err != nil {
			return nil, err
		}
		var rungs []string
		for _, p := range sw.Points {
			rungs = append(rungs, fmt.Sprintf("x%g %.4f", p.Multiplier, p.Result.Attainment))
		}
		res.extra = append(res.extra, line{name: "knee_x", unit: "x", clock: virtualClock, value: sw.Knee,
			note: fmt.Sprintf("highest rung meeting every class SLO, %g-ms window; attainment by rung: %s", ks.DurationMS, strings.Join(rungs, ", "))})
	}
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// mixForwardNS is the isolated nn.Forward cost of one completed inference,
// averaged over the classes by completions: linnos, kml and mllb run their
// networks (shaped as loadgen builds them); malware and ecryptfs are
// timing-only models with no forward pass.
func mixForwardNS(runs []*replayRun, seed int64, budget time.Duration) float64 {
	nets := []struct {
		mix   string
		sizes []int
	}{{"linnos", linnos.Base.Sizes()}, {"kml", kml.Sizes()}, {"mllb", mllb.Sizes()}}
	done := map[string]int64{}
	var total int64
	for _, rr := range runs {
		for _, c := range rr.r.Classes {
			done[c.Mix] += c.Completed
			total += c.Completed
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var ns float64
	for _, net := range nets {
		sz, n := net.sizes, done[net.mix]
		if n == 0 {
			continue
		}
		inputs := make([][]float32, 64)
		for i := range inputs {
			inputs[i] = make([]float32, sz[0])
			for j := range inputs[i] {
				inputs[i][j] = rng.Float32()
			}
		}
		ns += nnForwardNS(nn.New(seed, sz...), inputs, budget/3) * float64(n) / float64(total)
	}
	return ns
}

// expectedArrivals is the configured rate times the window, with burst
// windows weighted by their multipliers (the fleet scenarios have no
// diurnal curve and no overlapping bursts).
func expectedArrivals(s *loadgen.Scenario) (float64, error) {
	var rate float64
	for _, c := range s.Tenants {
		p, err := trace.ProfileByName(c.Profile)
		if err != nil {
			return 0, err
		}
		rr := c.Rerate
		if rr == 0 {
			rr = 1
		}
		mult := s.RateMultiplier
		if mult == 0 {
			mult = 1
		}
		rate += p.AvgIOPS * rr * mult
	}
	span := s.DurationMS
	for _, b := range s.Bursts {
		span += b.DurationMS * (b.Multiplier - 1)
	}
	return rate * span / 1000, nil
}

// fleetTraced is the per-layer pass of an open-loop workload: untraced
// replays for a third of the run, then traced replays (spans around Run,
// its set-up and its drive, and the layer counters read at the hook and at
// the result) for another third, then the isolated per-layer costs.
func fleetTraced(w *fleetWorkload, cfg runConfig, res *result) error {
	third := cfg.duration() / 3
	var untracedWall time.Duration
	var untracedArrivals int64
	for i, t0 := 0, time.Now(); i == 0 || time.Since(t0) < third; i++ {
		s := w.scenario(replaySeed(cfg.seed, i), cfg.tiny)
		rr, err := runReplay(s, false, nil)
		if err != nil {
			return err
		}
		checkReplay(res, s, rr)
		untracedWall += rr.drive.wall
		untracedArrivals += rr.r.Arrivals
	}
	// The traced replays restart from the run's seed, so they replay the
	// same arrivals as the untraced ones and the difference is the tracing.
	tr := newTracer()
	var runs []*replayRun
	for t0, j := time.Now(), 0; len(runs) == 0 || time.Since(t0) < third; j++ {
		s := w.scenario(replaySeed(cfg.seed, j), cfg.tiny)
		rr, err := runReplay(s, true, tr)
		if err != nil {
			return err
		}
		checkReplay(res, s, rr)
		runs = append(runs, rr)
	}
	path, err := tr.write(w.name, cfg.seed)
	if err != nil {
		return err
	}

	var d counters
	var b batchTotals
	var st flightrec.StageMeans // means over the traced replays
	var arrivals, completed, rejects, launches int64
	var expected, util, overCap, skew float64
	var wall, vclock time.Duration
	k := float64(len(runs))
	for _, rr := range runs {
		r := rr.r
		d = d.plus(rr.layers)
		b.items += rr.batch.items
		b.flushes += rr.batch.flushes
		b.deadline += rr.batch.deadline
		b.cpu += rr.batch.cpu
		if rr.batch.maxDelay > b.maxDelay {
			b.maxDelay = rr.batch.maxDelay
		}
		arrivals += r.Arrivals
		completed += r.Completed
		rejects += r.Rejects
		wall += rr.drive.wall
		vclock += rr.vclock
		launches += rr.launches
		util += rr.util / k
		e, err := expectedArrivals(r.Scenario)
		if err != nil {
			return err
		}
		expected += e
		for ci, c := range r.Classes {
			if lim := r.Scenario.Tenants[ci].MaxOutstanding; lim > 0 {
				overCap = math.Max(overCap, float64(c.PeakOutstanding)/float64(lim))
			}
		}
		var maxReq, sumReq int64
		for _, n := range rr.batch.shardRequests {
			sumReq += n
			if n > maxReq {
				maxReq = n
			}
		}
		if sumReq > 0 {
			skew += float64(maxReq) / (float64(sumReq) / float64(len(rr.batch.shardRequests))) / k
		}
		st.QueueNS += r.Stages.QueueNS / k
		st.ExecNS += r.Stages.ExecNS / k
		st.CopyNS += r.Stages.CopyNS / k
		st.BoundaryNS += r.Stages.BoundaryNS / k
	}
	if completed == 0 || d.calls == 0 || b.flushes == 0 {
		return fmt.Errorf("traced replays completed %d inferences in %d remoted calls and %d flushes", completed, d.calls, b.flushes)
	}
	inf := float64(completed)
	callsPerInfer := float64(d.calls) / inf
	m := res.metrics
	m["remoting.calls_per_infer"] = callsPerInfer
	m["remoting.retries"] = float64(d.retries)
	m["boundary.vns_per_call"] = float64(d.channel) / float64(d.calls)
	m["boundary.wakes_per_call"] = float64(d.wakes) / float64(d.calls)
	eventsPerInfer := float64(d.events) / inf
	m["flightrec.events_per_infer"] = eventsPerInfer
	if d.events > 0 {
		m["flightrec.dropped_frac"] = float64(d.dropped) / float64(d.events)
	}
	observesPerInfer := float64(d.observes) / inf
	m["telemetry.observes_per_infer"] = observesPerInfer
	m["shm.bytes_per_infer"] = float64(d.copyBytes) / inf
	avgBatch := float64(b.items) / float64(b.flushes)
	m["batcher.avg_batch"] = avgBatch
	m["batcher.deadline_flush_frac"] = float64(b.deadline) / float64(b.flushes)
	m["batcher.cpu_flush_frac"] = float64(b.cpu) / float64(b.flushes)
	m["batcher.max_queue_delay_us"] = us(b.maxDelay)
	m["fleet.reject_frac"] = float64(rejects) / float64(arrivals)
	m["fleet.peak_over_cap"] = overCap
	m["fleet.shard_skew"] = skew
	m["loadgen.offered_ratio"] = float64(arrivals) / expected
	m["loadgen.wall_ns_per_arrival"] = float64(wall) / float64(arrivals)
	setStages(m, st)
	m["gpu.vns_per_infer"] = (st.ExecNS + st.CopyNS) * callsPerInfer
	m["gpu.util"] = util

	// Isolated per-layer costs, on the shape of an average flush of the
	// linnos class (the largest) and at the replays' launch interval.
	budget := 250 * time.Millisecond
	steps := 200
	if cfg.tiny {
		budget, steps = 25*time.Millisecond, 20
	}
	items := max(1, int(math.Round(avgBatch)))
	codec := codecNS(items, linnos.InputWidth, budget)
	emit := emitNS(budget)
	observe := observeNS(budget)
	forward := mixForwardNS(runs, cfg.seed, budget)
	stage, err := stageNSPerByte(4*items*linnos.InputWidth, budget)
	if err != nil {
		return err
	}
	shards := float64(len(runs[0].batch.shardRequests) * len(runs))
	shape := launchShape{
		inBytes: 4 * items * linnos.InputWidth, outBytes: 8 * items,
		flops: float64(items) * nn.New(cfg.seed, linnos.Base.Sizes()...).Flops(), interval: vclock / time.Duration(max(launches, 1)),
	}
	history := utilizationHorizon
	if cfg.tiny {
		history = 50 * time.Millisecond
	}
	launchEmpty, err := launchNS(shape, 0, steps)
	if err != nil {
		return err
	}
	launchFull, err := launchNS(shape, history, steps)
	if err != nil {
		return err
	}
	// A device prunes its span history only once its clock is past the
	// horizon, so a replay's launches cost the empty-device price until then
	// and the full-history price after: the ledger weights the two by the
	// share of each shard's clock spent past the horizon.
	T, H := vclock.Seconds()/shards, history.Seconds()
	past := math.Max(0, T-H) / T
	launchHere := past*launchFull + (1-past)*launchEmpty
	m["remoting.codec_ns"] = codec
	m["flightrec.emit_ns"] = emit
	m["telemetry.observe_ns"] = observe
	m["nn.forward_ns_per_item"] = forward
	m["gpu.launch_ns.empty"] = launchEmpty
	m["gpu.launch_ns.full"] = launchFull
	shmNS := stage * float64(d.copyBytes) / inf
	m["shm.stage_ns_per_infer"] = shmNS

	// The ledger, per completed inference.
	perInfer := float64(wall) / inf
	launchesPerInfer := float64(launches) / inf
	rows := []ledgerRow{
		{"shm", "isolated staging x bytes copied", shmNS},
		{"remoting.codec", fmt.Sprintf("isolated codec x %.3f calls", callsPerInfer), codec * callsPerInfer},
		{"flightrec", fmt.Sprintf("isolated Emit x %.2f events", eventsPerInfer), emit * eventsPerInfer},
		{"telemetry", fmt.Sprintf("isolated observe+add x %.2f observations", observesPerInfer), observe * observesPerInfer},
		{"cuda/gpu", fmt.Sprintf("isolated copy+launch+copy, %.0f%% at full history, x %.3f launches", 100*past, launchesPerInfer), launchHere * launchesPerInfer},
		{"nn", "isolated Forward of each class's network, weighted by completions", forward},
	}
	m["trace.unattributed_frac"] = ledger(res, perInfer, rows)
	m["nn.wall_share"] = forward / perInfer
	tracedPerArrival := float64(wall) / float64(arrivals)
	m["trace.overhead_frac"] = tracedPerArrival/(float64(untracedWall)/float64(untracedArrivals)) - 1
	res.extra = append(res.extra, line{name: "spans", unit: "count", clock: noClock, value: float64(len(tr.spans)), note: "written to " + path})
	return nil
}
