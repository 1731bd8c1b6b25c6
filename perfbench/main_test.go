package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary, so the
// self-test runs every workload in a process of its own, as the benchmark
// does, without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the metrics and
// workloads the binary reports.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, specs []metricSpec) {
		if len(file) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(file), len(specs))
			return
		}
		for i, s := range specs {
			if file[i].Name != s.name || file[i].Unit != s.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the binary %s [%s]", kind, i, file[i].Name, file[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyRuns runs every workload, untraced and traced, at tiny size and
// checks that each prints every metric of its kind with its unit, in the
// table and in the JSON result line, and that its outputs checked correct.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in a child process")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
			}
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--tiny")
				cmd.Env = append(os.Environ(), "PERFBENCH_AS_MAIN=1")
				cmd.Dir = t.TempDir()
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("JSON carries %d metrics, want %d", len(res.Metrics), len(specs))
				}
				printed := map[string]string{} // metric name -> unit, from the table
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 4 && f[0] == w.name {
						printed[f[1]] = f[3]
					}
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Value == nil || m.Unit != s.unit {
						t.Errorf("JSON metric %s: got %+v, want a value in %s", s.name, m, s.unit)
					}
					if printed[s.name] != s.unit {
						t.Errorf("table prints %s with unit %q, want %q", s.name, printed[s.name], s.unit)
					}
				}
			})
		}
	}
}

// TestNoResultWithoutSources: outside a checkout the wrapper cannot build
// the benchmark, and it must fail without printing a result.
func TestNoResultWithoutSources(t *testing.T) {
	if _, err := exec.LookPath("python3"); err != nil {
		t.Skip("python3 not on PATH")
	}
	dir := t.TempDir()
	if err := os.Mkdir(dir+"/perfbench", 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("run.py")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/perfbench/run.py", src, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("python3", "perfbench/run.py", "--workload", "mllb-sync", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.py succeeded without the repository sources:\n%s", out)
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Errorf("run.py printed a result without the repository sources:\n%s", out)
	}
}
