package batcher_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/core"
	"lakego/internal/offload"
	"lakego/internal/policy"
)

const (
	inW  = 4
	outW = 2
)

// forward is a deterministic stand-in model: affine mix of the inputs.
func forward(x []float32) []float32 {
	var a, b float32
	for i, v := range x {
		a += v * float32(i+1)
		b += v * v
	}
	return []float32{a, b + 1}
}

// forwardHook is forward as the scratch-taking nn.ForwardFunc hook; the
// stand-in model has no activations to keep, so it ignores the scratch.
func forwardHook(x []float32, _ *[]float32) []float32 { return forward(x) }

func newRT(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func modelCfg(name string) batcher.ModelConfig {
	return batcher.ModelConfig{
		Name:       name,
		InputWidth: inW, OutputWidth: outW,
		MaxBatch: 1024,
		CPUFixed: 2 * time.Microsecond, CPUPerItem: time.Microsecond,
		FlopsPerItem: 1000,
		Forward:      forwardHook,
	}
}

func newBatcher(t *testing.T, rt *core.Runtime, cfg batcher.Config) *batcher.Batcher {
	t.Helper()
	b := rt.NewBatcher(cfg)
	if err := b.RegisterModel(modelCfg("testmodel")); err != nil {
		t.Fatal(err)
	}
	return b
}

func item(i int) []float32 {
	x := make([]float32, inW)
	for j := range x {
		x[j] = float32((i*7+j*3)%13) / 4
	}
	return x
}

// TestDeadlineFlush: a lone request must be flushed at exactly its enqueue
// time + MaxWait on the virtual clock.
func TestDeadlineFlush(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0 // drive the deadline flush from the first Wait
	cfg.MaxWait = 150 * time.Microsecond
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	t0 := rt.Clock().Now()
	p, err := c.Submit("testmodel", [][]float32{item(0)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := forward(item(0))
	if out[0][0] != want[0] || out[0][1] != want[1] {
		t.Fatalf("out = %v, want %v", out[0], want)
	}
	st := b.Stats()
	if st.DeadlineFlushes != 1 || st.FullFlushes != 0 {
		t.Fatalf("flushes = %+v, want one deadline flush", st)
	}
	if st.MaxQueueDelay != cfg.MaxWait {
		t.Fatalf("queue delay = %v, want exactly MaxWait %v", st.MaxQueueDelay, cfg.MaxWait)
	}
	if lat := p.Latency(); lat < cfg.MaxWait {
		t.Fatalf("latency %v < MaxWait", lat)
	}
	if rt.Clock().Now() < t0+cfg.MaxWait {
		t.Fatal("virtual clock did not reach the flush deadline")
	}
}

// TestDeadlineFlushBehindRunningFlush: a deadline batch formed while an
// earlier flush of the same model holds its staging stream flushes only
// after that flush's GPU time, which lies past the deadline. Its queue
// delay still ends at the deadline; the rest is stream wait.
func TestDeadlineFlushBehindRunningFlush(t *testing.T) {
	rt := newRT(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls sync.Mutex
	first := true
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	cfg.MaxBatch = 2
	// The policy runs inside execute with the stream held and before any
	// GPU time is charged: holding the first flush there lets the second
	// batch form while the first has yet to run.
	cfg.Policy = func(int) policy.Decision {
		calls.Lock()
		hold := first
		first = false
		calls.Unlock()
		if hold {
			close(entered)
			<-release
		}
		return policy.UseGPU
	}
	b := rt.NewBatcher(cfg)
	mc := modelCfg("testmodel")
	mc.FlopsPerItem = 1e10 // each flush costs far more GPU time than MaxWait
	if err := b.RegisterModel(mc); err != nil {
		t.Fatal(err)
	}

	fullDone := make(chan error, 1)
	go func() {
		_, err := b.Client("full").Infer("testmodel", [][]float32{item(0), item(1)})
		fullDone <- err
	}()
	<-entered
	p, err := b.Client("lone").Submit("testmodel", [][]float32{item(2)})
	if err != nil {
		t.Fatal(err)
	}
	loneDone := make(chan error, 1)
	go func() {
		_, err := p.Wait()
		loneDone <- err
	}()
	// Release the first flush once the lone request's batch has formed.
	depth := rt.Telemetry().Gauge("lake_batcher_queue_depth", "")
	for deadline := time.Now().Add(5 * time.Second); depth.Value() != 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-fullDone; err != nil {
		t.Fatal(err)
	}
	if err := <-loneDone; err != nil {
		t.Fatal(err)
	}

	st := b.Stats()
	if st.FullFlushes != 1 || st.DeadlineFlushes != 1 {
		t.Fatalf("flushes = %+v, want one full and one deadline flush", st)
	}
	if st.MaxQueueDelay != cfg.MaxWait {
		t.Fatalf("queue delay = %v, want exactly MaxWait %v", st.MaxQueueDelay, cfg.MaxWait)
	}
	if st.MaxStreamWait <= 0 {
		t.Fatalf("stream wait = %v, want > 0 behind the running flush", st.MaxStreamWait)
	}
	if lat := p.Latency(); lat <= cfg.MaxWait+st.MaxStreamWait {
		t.Fatalf("latency %v does not include the stream wait %v past MaxWait", lat, st.MaxStreamWait)
	}
}

// TestFullFlush: filling the queue to MaxBatch flushes inline from Submit,
// before any Wait, and ahead of the deadline.
func TestFullFlush(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = 8
	cfg.ClientDepth = 16
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	pendings := make([]*batcher.Pending, cfg.MaxBatch)
	for i := range pendings {
		p, err := c.Submit("testmodel", [][]float32{item(i)})
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	st := b.Stats()
	if st.FullFlushes != 1 || st.DeadlineFlushes != 0 {
		t.Fatalf("flushes = %+v, want one full flush", st)
	}
	if st.MaxQueueDelay > cfg.MaxWait {
		t.Fatalf("queue delay %v exceeds MaxWait %v", st.MaxQueueDelay, cfg.MaxWait)
	}
	for i, p := range pendings {
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := forward(item(i))
		if out[0][0] != want[0] || out[0][1] != want[1] {
			t.Fatalf("request %d: out = %v, want %v", i, out[0], want)
		}
	}
	if got := b.Stats().AvgBatch(); got != float64(cfg.MaxBatch) {
		t.Fatalf("avg batch = %v, want %d", got, cfg.MaxBatch)
	}
}

// TestBackpressure: a client beyond its depth is rejected with the
// retryable result, and capacity returns once a request is delivered.
func TestBackpressure(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.ClientDepth = 2
	cfg.Linger = 0
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	p1, err := c.Submit("testmodel", [][]float32{item(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("testmodel", [][]float32{item(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("testmodel", [][]float32{item(3)}); !errors.Is(err, batcher.ErrBackpressure) {
		t.Fatalf("third submit err = %v, want ErrBackpressure", err)
	}
	if got := b.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if _, err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("testmodel", [][]float32{item(4)}); err != nil {
		t.Fatalf("submit after drain err = %v", err)
	}
	// Other clients are unaffected by this client's backpressure: fair
	// admission is per client.
	if _, err := b.Client("other").Submit("testmodel", [][]float32{item(5)}); err != nil {
		t.Fatalf("other client submit err = %v", err)
	}
}

// TestPolicyRoutesCPU: a contended/unprofitable decision runs the flush on
// the CPU fallback with identical outputs.
func TestPolicyRoutesCPU(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	cfg.Policy = func(batchSize int) policy.Decision { return policy.UseCPU }
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	out, err := c.Infer("testmodel", [][]float32{item(10), item(11)})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.CPUFlushes != 1 || st.GPUFlushes != 0 {
		t.Fatalf("flushes = %+v, want CPU flush", st)
	}
	for i, idx := range []int{10, 11} {
		want := forward(item(idx))
		if out[i][0] != want[0] || out[i][1] != want[1] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

// TestAdaptivePolicySplit: with the Fig 3 policy installed, small flushes
// stay on the CPU and large ones offload.
func TestAdaptivePolicySplit(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.Linger = 0
	cfg.MaxBatch = 64
	cfg.ClientDepth = 64
	ap := rt.NewAdaptivePolicy(policy.DefaultAdaptiveConfig()) // batch_threshold 8
	cfg.Policy = ap.Decide
	b := newBatcher(t, rt, cfg)
	c := b.Client("cli")

	if _, err := c.Infer("testmodel", [][]float32{item(0)}); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.CPUFlushes != 1 {
		t.Fatalf("batch of 1 should stay on CPU: %+v", st)
	}
	big := make([][]float32, 32)
	for i := range big {
		big[i] = item(i)
	}
	if _, err := c.Infer("testmodel", big); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.GPUFlushes != 1 {
		t.Fatalf("batch of 32 should offload: %+v", st)
	}
}

// TestBitIdenticalToUnbatched: routing through the batcher must produce
// bit-identical outputs to the unbatched offload paths (GPU and CPU).
func TestBitIdenticalToUnbatched(t *testing.T) {
	rtA := newRT(t)
	b := newBatcher(t, rtA, batcher.DefaultConfig())
	c := b.Client("cli")

	rtB := newRT(t)
	runner, err := offload.NewRunner(rtB, offload.Config{
		Name: "testmodel", InputWidth: inW, OutputWidth: outW, MaxBatch: 1024,
		CPUFixed: 2 * time.Microsecond, CPUPerItem: time.Microsecond,
		FlopsPerItem: 1000,
		Forward:      forwardHook,
	})
	if err != nil {
		t.Fatal(err)
	}

	batch := make([][]float32, 17)
	for i := range batch {
		batch[i] = item(i * 3)
	}
	got, err := c.Infer("testmodel", batch)
	if err != nil {
		t.Fatal(err)
	}
	wantGPU, _, err := runner.RunLAKE(batch, false)
	if err != nil {
		t.Fatal(err)
	}
	wantCPU, _ := runner.RunCPU(batch)
	for i := range batch {
		for j := 0; j < outW; j++ {
			if got[i][j] != wantGPU[i][j] || got[i][j] != wantCPU[i][j] {
				t.Fatalf("item %d out %d: batched %v, unbatched GPU %v, CPU %v",
					i, j, got[i][j], wantGPU[i][j], wantCPU[i][j])
			}
		}
	}
}

// TestConcurrentClients is the race-focused test: many goroutine clients
// share one Batcher, every result must match its own input's forward pass,
// and no request may wait past the deadline on the virtual clock.
func TestConcurrentClients(t *testing.T) {
	rt := newRT(t)
	cfg := batcher.DefaultConfig()
	cfg.MaxBatch = 16
	cfg.MaxWait = time.Millisecond
	cfg.Linger = 50 * time.Microsecond
	cfg.ClientDepth = 8
	b := newBatcher(t, rt, cfg)

	const (
		clients  = 12
		requests = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)))
			c := b.Client(fmt.Sprintf("cli-%d", ci))
			for r := 0; r < requests; r++ {
				n := 1 + rng.Intn(3)
				items := make([][]float32, n)
				for i := range items {
					items[i] = item(ci*1000 + r*10 + i)
				}
				out, err := c.Infer("testmodel", items)
				if errors.Is(err, batcher.ErrBackpressure) {
					r-- // retry, as the result code intends
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", ci, err)
					return
				}
				for i := range items {
					want := forward(items[i])
					for j := range want {
						if out[i][j] != want[j] {
							errs <- fmt.Errorf("client %d req %d item %d: got %v want %v",
								ci, r, i, out[i], want)
							return
						}
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Requests != clients*requests {
		t.Fatalf("requests = %d, want %d", st.Requests, clients*requests)
	}
	if st.MaxQueueDelay > cfg.MaxWait {
		t.Fatalf("queue delay %v exceeded MaxWait %v", st.MaxQueueDelay, cfg.MaxWait)
	}
	if st.Flushes == 0 || st.Items < st.Requests {
		t.Fatalf("implausible stats: %+v", st)
	}
	t.Logf("stats: %+v avg batch %.1f", st, st.AvgBatch())
}

// TestSubmitValidation covers the request-shape error paths.
func TestSubmitValidation(t *testing.T) {
	rt := newRT(t)
	b := newBatcher(t, rt, batcher.DefaultConfig())
	c := b.Client("cli")
	if _, err := c.Submit("nosuch", [][]float32{item(0)}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := c.Submit("testmodel", nil); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := c.Submit("testmodel", [][]float32{{1, 2}}); err == nil {
		t.Fatal("wrong-width item accepted")
	}
	if err := b.RegisterModel(modelCfg("testmodel")); err == nil {
		t.Fatal("duplicate model registration accepted")
	}
}
