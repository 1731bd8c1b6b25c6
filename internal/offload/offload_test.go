package offload

import (
	"fmt"
	"testing"
	"time"

	"lakego/internal/core"
)

func boot(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// doubler writes into *scratch when it has one, like nn.ForwardInto.
func doubler(x []float32, scratch *[]float32) []float32 {
	var out []float32
	if scratch != nil && cap(*scratch) >= len(x) {
		out = (*scratch)[:len(x)]
	} else {
		out = make([]float32, len(x))
		if scratch != nil {
			*scratch = out
		}
	}
	for i, v := range x {
		out[i] = 2 * v
	}
	return out
}

func cfg(name string) Config {
	return Config{
		Name: name, InputWidth: 4, OutputWidth: 4, MaxBatch: 64,
		CPUFixed: 2 * time.Microsecond, CPUPerItem: 1200 * time.Nanosecond,
		FlopsPerItem: 1000, Forward: doubler,
	}
}

func TestConfigValidation(t *testing.T) {
	rt := boot(t)
	bad := []Config{
		{},
		{Name: "x", InputWidth: 0, OutputWidth: 1, MaxBatch: 1},
		{Name: "x", InputWidth: 1, OutputWidth: 0, MaxBatch: 1},
		{Name: "x", InputWidth: 1, OutputWidth: 1, MaxBatch: 0},
	}
	for i, c := range bad {
		if _, err := NewRunner(rt, c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestCPUAndLAKEProduceSameOutputs(t *testing.T) {
	rt := boot(t)
	r, err := NewRunner(rt, cfg("dbl"))
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}}
	cpuOut, cpuT := r.RunCPU(batch)
	lakeOut, lakeT, err := r.RunLAKE(batch, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		for j := range batch[i] {
			if cpuOut[i][j] != 2*batch[i][j] || lakeOut[i][j] != 2*batch[i][j] {
				t.Fatalf("outputs wrong: cpu=%v lake=%v", cpuOut[i], lakeOut[i])
			}
		}
	}
	if want := 2*time.Microsecond + 2*1200*time.Nanosecond; cpuT != want {
		t.Fatalf("cpu time = %v, want %v", cpuT, want)
	}
	if lakeT <= 0 {
		t.Fatalf("lake time = %v", lakeT)
	}
}

func TestTimingOnlyKernel(t *testing.T) {
	rt := boot(t)
	c := cfg("timing")
	c.Forward = nil
	r, err := NewRunner(rt, c)
	if err != nil {
		t.Fatal(err)
	}
	out, d, err := r.RunLAKE([][]float32{{1, 2, 3, 4}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no time charged")
	}
	for _, v := range out[0] {
		if v != 0 {
			t.Fatalf("timing-only kernel produced %v", out[0])
		}
	}
	cpuOut, _ := r.RunCPU([][]float32{{1, 2, 3, 4}})
	if len(cpuOut[0]) != 4 {
		t.Fatal("cpu timing-only output wrong width")
	}
}

func TestRunLAKEValidation(t *testing.T) {
	rt := boot(t)
	r, _ := NewRunner(rt, cfg("val"))
	if _, _, err := r.RunLAKE(make([][]float32, 65), true); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, _, err := r.RunLAKE([][]float32{{1}}, true); err == nil {
		t.Fatal("narrow item accepted")
	}
	if out, d, err := r.RunLAKE(nil, true); err != nil || out != nil || d != 0 {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestSweepAndCrossover(t *testing.T) {
	rt := boot(t)
	r, _ := NewRunner(rt, cfg("sweep"))
	pts, err := Sweep(r, []int{1, 8, 64}, func(i int) []float32 {
		return []float32{float32(i), 0, 0, 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// CPU grows linearly, LAKE is ~flat: with 1µs/item vs ~70µs fixed,
	// crossover must be 64.
	if got := Crossover(pts); got != 64 {
		for _, p := range pts {
			t.Logf("batch %d: cpu=%v lake=%v sync=%v", p.Batch, p.CPU, p.LAKE, p.LAKESync)
		}
		t.Fatalf("crossover = %d, want 64", got)
	}
	// Sync always costs at least async.
	for _, p := range pts {
		if p.LAKESync < p.LAKE {
			t.Fatalf("sync %v < async %v at batch %d", p.LAKESync, p.LAKE, p.Batch)
		}
	}
	if _, err := Sweep(r, []int{128}, func(int) []float32 { return nil }); err == nil {
		t.Fatal("sweep beyond MaxBatch accepted")
	}
}

func TestCrossoverNever(t *testing.T) {
	pts := []SweepPoint{{Batch: 1, CPU: 1, LAKE: 2}, {Batch: 2, CPU: 2, LAKE: 3}}
	if got := Crossover(pts); got != 0 {
		t.Fatalf("Crossover = %d, want 0", got)
	}
}

func TestStandardBatches(t *testing.T) {
	b := StandardBatches()
	if len(b) != 11 || b[0] != 1 || b[10] != 1024 {
		t.Fatalf("StandardBatches = %v", b)
	}
}

func TestRunnerConfigAccessorAndBadForward(t *testing.T) {
	rt := boot(t)
	c := cfg("badfwd")
	c.Forward = func([]float32, *[]float32) []float32 { return []float32{1} } // wrong width
	r, err := NewRunner(rt, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().Name != "badfwd" {
		t.Fatal("Config accessor wrong")
	}
	// Wrong-width forward output surfaces as a launch failure.
	if _, _, err := r.RunLAKE([][]float32{{1, 2, 3, 4}}, true); err == nil {
		t.Fatal("wrong-width forward accepted on the GPU path")
	}
}

func TestNewRunnerDuplicateKernelNameOK(t *testing.T) {
	// Registering twice overwrites in the flat namespace; NewRunner must
	// still wire up cleanly.
	rt := boot(t)
	if _, err := NewRunner(rt, cfg("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(rt, cfg("dup")); err != nil {
		t.Fatal(err)
	}
}

// Concurrent RunLAKE callers share one runner's staging and kernel scratch:
// every caller must get its own batch's outputs, and outputs handed back
// stay intact while other callers keep running.
func TestRunLAKEConcurrentCallersOwnResults(t *testing.T) {
	rt := boot(t)
	c := cfg("dbl_into")
	r, err := NewRunner(rt, c)
	if err != nil {
		t.Fatal(err)
	}
	const callers, rounds = 4, 50
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			var kept [][][]float32
			var batches [][][]float32
			for k := 0; k < rounds; k++ {
				batch := make([][]float32, 1+(g+k)%3)
				for i := range batch {
					base := float32(g*10000 + k*10 + i)
					batch[i] = []float32{base, base + 0.25, base + 0.5, base + 0.75}
				}
				out, _, err := r.RunLAKE(batch, k%2 == 0)
				if err != nil {
					errs <- err
					return
				}
				kept = append(kept, out)
				batches = append(batches, batch)
			}
			for k, out := range kept {
				for i, x := range batches[k] {
					for j := range x {
						if out[i][j] != 2*x[j] {
							errs <- fmt.Errorf("caller %d round %d item %d: got %v, want 2x %v", g, k, i, out[i], x)
							return
						}
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
