package loadgen

import (
	"fmt"
	"time"

	"lakego/internal/batcher"
	"lakego/internal/kml"
	"lakego/internal/linnos"
	"lakego/internal/malware"
	"lakego/internal/mllb"
	"lakego/internal/nn"
	"lakego/internal/sched"
)

// Traffic classes. Each maps a tenant mix name to a batcher model with the
// same inference shape and cost profile as the corresponding LAKE
// subsystem, so macro load exercises the fleet with the per-item compute,
// staging sizes and CPU-fallback economics of the real workloads:
//
//   - linnos: the §7.1 I/O latency predictor (31-wide features, Base
//     variant network, calibrated kernel CPU cost);
//   - kml: the readahead tuner (10-wide, pattern-class output);
//   - mllb: the scheduler load balancer (sched feature vector, binary);
//   - malware: the KNN syscall-frequency detector, timing-only (the
//     macro layer cares about its distance-matrix FLOP load, not labels);
//   - ecryptfs: AES-GCM block cipher offload, timing-only with a 2 KiB
//     block staged per request — the bulk-data class that stresses
//     lakeShm and copy bandwidth rather than FLOPs.
//
// Networks are seeded per class, so forwards — and with them results
// files — are deterministic.

// Malware class shape: syscall-frequency vectors against a reference set.
const (
	malwareDim  = 64
	malwareRefs = 1024
)

// ecryptfs class shape: one 2 KiB block as 512 float32 lanes.
const ecryptfsLanes = 512

// MixNames lists the valid TenantClass.Mix values.
func MixNames() []string { return []string{"linnos", "kml", "mllb", "malware", "ecryptfs"} }

// classModel builds the batcher model for a tenant mix. The model name
// equals the mix name: classes sharing a mix share one queue per shard,
// exactly like kernel subsystems sharing a lakeD model context.
func classModel(mix string) (batcher.ModelConfig, error) {
	switch mix {
	case "linnos":
		net := nn.New(3, linnos.Base.Sizes()...)
		return batcher.ModelConfig{
			Name:       "linnos",
			InputWidth: linnos.InputWidth, OutputWidth: 2,
			MaxBatch:     linnos.MaxBatch,
			CPUPerItem:   linnos.Base.CPUInferCost(),
			FlopsPerItem: net.Flops(),
			Forward:      net.ForwardInto,
		}, nil
	case "kml":
		net := nn.New(5, kml.Sizes()...)
		sizes := kml.Sizes()
		return batcher.ModelConfig{
			Name:       "kml",
			InputWidth: kml.InputWidth, OutputWidth: sizes[len(sizes)-1],
			MaxBatch:     kml.MaxBatch,
			CPUFixed:     2 * time.Microsecond,
			CPUPerItem:   cpuCost(net.Flops()),
			FlopsPerItem: net.Flops(),
			Forward:      net.ForwardInto,
		}, nil
	case "mllb":
		net := nn.New(7, mllb.Sizes()...)
		return batcher.ModelConfig{
			Name:       "mllb",
			InputWidth: sched.VectorSize, OutputWidth: 2,
			MaxBatch:     mllb.MaxBatch,
			CPUFixed:     2 * time.Microsecond,
			CPUPerItem:   cpuCost(net.Flops()),
			FlopsPerItem: net.Flops(),
			Forward:      net.ForwardInto,
		}, nil
	case "malware":
		// Timing-only: one query's distance matrix against the reference
		// set (3 FLOPs per dimension pair), the Fig 12 sweep's cost shape.
		flops := float64(3 * malwareDim * malwareRefs)
		return batcher.ModelConfig{
			Name:       "malware",
			InputWidth: malwareDim, OutputWidth: 1,
			MaxBatch:     1024,
			CPUFixed:     2 * time.Microsecond,
			CPUPerItem:   cpuCost(flops),
			FlopsPerItem: flops,
		}, nil
	case "ecryptfs":
		// Timing-only bulk-data class: ~10 FLOPs per AES-GCM byte keeps
		// the GPU cipher rate in Fig 14's hundreds-of-MB/s regime while
		// each request stages a whole block through lakeShm.
		flops := float64(10 * 4 * ecryptfsLanes)
		return batcher.ModelConfig{
			Name:       "ecryptfs",
			InputWidth: ecryptfsLanes, OutputWidth: 1,
			MaxBatch:     256,
			CPUFixed:     time.Microsecond,
			CPUPerItem:   cpuCost(flops),
			FlopsPerItem: flops,
		}, nil
	default:
		return batcher.ModelConfig{}, fmt.Errorf("unknown mix %q (want one of %v)", mix, MixNames())
	}
}

// cpuCost converts a per-item FLOP count to kernel-space CPU time at the
// malware study's calibrated 2.5 GFLOPS single-core rate.
func cpuCost(flops float64) time.Duration {
	return time.Duration(flops / (malware.CPUGFLOPS * 1e9) * float64(time.Second))
}

// synthItem writes a deterministic feature vector for one arrival into
// dst (already sized to the class's input width). Values never affect
// modeled timing — only staging and forward passes consume them — but
// varying them keeps the replay honest about marshaling real payloads.
func synthItem(dst []float32, seed int64, id int32, gen, draw uint32) {
	h := mix(seed, id, gen, draw, saltFeature)
	// Four varying lanes spread across the vector; the rest stay zero.
	n := len(dst)
	for k := 0; k < 4 && k < n; k++ {
		h = splitmix64(h)
		dst[(k*n)/4] = float32(h>>40) / float32(1<<24)
	}
}
