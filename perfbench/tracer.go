package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the module it names.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced pass. A nil tracer records
// nothing, so the replay code serves untraced calls too.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.base))
	}
}

// layerTime is one span name's totals.
type layerTime struct {
	count int
	total time.Duration // sum of span durations
	durs  []time.Duration
}

// byName folds the spans by name.
func (t *tracer) byName() map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.count++
		lt.total += d
		lt.durs = append(lt.durs, d)
	}
	return out
}

func (lt *layerTime) mean() time.Duration {
	if lt == nil || lt.count == 0 {
		return 0
	}
	return lt.total / time.Duration(lt.count)
}

// write saves the spans as JSON next to the benchmark binary, the build
// directory, so a traced run leaves its timeline for inspection.
func (t *tracer) write(workload string, seed int64) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	path := filepath.Join(filepath.Dir(exe), "spans-"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
