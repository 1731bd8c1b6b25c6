package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentExposition exports the registry (Prometheus text, JSON)
// while counters, gauges and histograms are being written full-tilt. The CI
// test job runs the suite under -race, so this is the standing guard that
// the whole exposition path is data-race-free, not just the individual
// instruments.
func TestConcurrentExposition(t *testing.T) {
	r := NewRegistry()

	// Register up front so the first exposition already sees the families;
	// the writer goroutines exercise concurrent get-or-create anyway.
	r.Counter("lake_expo_total", "")
	r.Gauge("lake_expo_depth", "")
	r.Histogram("lake_expo_ns", "", DefaultLatencyBuckets())

	var wg sync.WaitGroup

	// Instrument writers: fixed iteration counts keep the final assertions
	// deterministic while still overlapping the reader loop below.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("lake_expo_total", "")
			g := r.Gauge("lake_expo_depth", "")
			h := r.Histogram("lake_expo_ns", "", DefaultLatencyBuckets())
			for i := 0; i < 4000; i++ {
				c.Inc()
				g.Set(int64(i % 16))
				h.ObserveDuration(time.Duration(i%1000) * time.Microsecond)
			}
		}(w)
	}

	// Readers: every exposition surface, repeatedly, under load.
	for i := 0; i < 150; i++ {
		if text := r.PrometheusText(); !strings.Contains(text, "lake_expo_total") {
			t.Fatalf("exposition lost a live counter:\n%.300s", text)
		}
		if _, err := r.JSON(); err != nil {
			t.Fatalf("JSON exposition under load: %v", err)
		}
		_ = r.Snapshot()
	}
	wg.Wait()
}
