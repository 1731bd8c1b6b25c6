package mllb

import (
	"lakego/internal/batcher"
)

// BatchModelName is the batcher model registered by EnableBatching.
const BatchModelName = "mllb_nn_batched"

// EnableBatching registers the balancer with the lakeD cross-client
// batcher: individual runqueues rarely accumulate the 256-input Fig 10
// crossover on their own, so per-core balancers coalesce their candidate
// sets into one launch.
func (b *Balancer) EnableBatching(bt *batcher.Batcher) error {
	return bt.RegisterModel(batcher.ModelConfig{
		Name:       BatchModelName,
		InputWidth: InputWidth, OutputWidth: 2,
		MaxBatch: MaxBatch,
		CPUFixed: cpuFixed, CPUPerItem: cpuPerItem,
		FlopsPerItem: b.net.Flops(),
		Forward:      b.net.ForwardInto,
	})
}

// ClassifyBatched scores migration candidates through the cross-client
// batcher, bit-identical to ClassifyCPU / ClassifyLAKE.
func (b *Balancer) ClassifyBatched(c *batcher.Client, batch [][]float32) ([]bool, error) {
	out, err := c.Infer(BatchModelName, batch)
	if err != nil {
		return nil, err
	}
	return argmax1(out), nil
}
