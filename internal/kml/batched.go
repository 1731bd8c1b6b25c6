package kml

import (
	"lakego/internal/batcher"
)

// BatchModelName is the batcher model registered by EnableBatching.
const BatchModelName = "kml_nn_batched"

// EnableBatching registers the classifier with the lakeD cross-client
// batcher: per-mount readahead classifiers each see few windows per flush
// interval (the Fig 11 crossover is 64 inputs), so coalescing mounts is
// what makes GPU offload profitable.
func (c *Classifier) EnableBatching(b *batcher.Batcher) error {
	return b.RegisterModel(batcher.ModelConfig{
		Name:       BatchModelName,
		InputWidth: InputWidth, OutputWidth: len(patternNames),
		MaxBatch: MaxBatch,
		CPUFixed: cpuFixed, CPUPerItem: cpuPerItem,
		// Same-shape SwapNet keeps the FLOP count stable; the provider
		// resolves the serving version once per flush.
		FlopsPerItem:    c.Net().Flops(),
		ForwardProvider: c.net.Forward,
	})
}

// ClassifyBatched predicts patterns through the cross-client batcher,
// bit-identical to ClassifyCPU / ClassifyLAKE.
func (c *Classifier) ClassifyBatched(cl *batcher.Client, batch [][]float32) ([]Pattern, error) {
	out, err := cl.Infer(BatchModelName, batch)
	if err != nil {
		return nil, err
	}
	return argmaxAll(out), nil
}
