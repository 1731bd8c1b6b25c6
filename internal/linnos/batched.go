package linnos

import (
	"fmt"

	"lakego/internal/batcher"
)

// Cross-client batching opt-in: on a live system many block devices (and
// their submission queues) classify I/Os concurrently, but each queue on
// its own accumulates only a handful of requests per window — below the
// Fig 8 crossover of 8. Routing predictors through the lakeD batcher
// coalesces those independent streams into one profitable GPU launch.

// BatchModelName is the batcher model registered by EnableBatching.
func (p *Predictor) BatchModelName() string {
	return kernelName(p.kind) + "_batched"
}

// EnableBatching registers this predictor's network as a batcher model so
// clients can route classification through cross-client batching. The
// model reuses the predictor's calibrated kernel-space CPU cost, so the
// batcher's CPU fallback and the Fig 3 policy see the same economics as
// the unbatched paths.
func (p *Predictor) EnableBatching(b *batcher.Batcher) error {
	return b.RegisterModel(batcher.ModelConfig{
		Name:       p.BatchModelName(),
		InputWidth: InputWidth, OutputWidth: 2,
		MaxBatch:   MaxBatch,
		CPUPerItem: p.kind.CPUInferCost(),
		// Same-shape SwapNet keeps the FLOP count stable; the provider
		// resolves the serving version once per flush.
		FlopsPerItem:    p.Net().Flops(),
		ForwardProvider: p.net.Forward,
	})
}

// SubmitBatched stages one client's feature batch with the batcher and
// returns the pending handle; combine with WaitSlow to collect
// predictions.
func (p *Predictor) SubmitBatched(c *batcher.Client, batch [][]float32) (*batcher.Pending, error) {
	return c.Submit(p.BatchModelName(), batch)
}

// WaitSlow resolves a SubmitBatched handle into per-I/O slow-vs-fast
// predictions, decoding logits exactly as the unbatched paths do.
func WaitSlow(pending *batcher.Pending) ([]bool, error) {
	out, err := pending.Wait()
	if err != nil {
		return nil, err
	}
	slow := make([]bool, len(out))
	for i, logits := range out {
		if len(logits) != 2 {
			return nil, fmt.Errorf("linnos: batched output width %d, want 2", len(logits))
		}
		slow[i] = logits[1] > logits[0]
	}
	return slow, nil
}

// InferBatched classifies the batch through the cross-client batcher:
// SubmitBatched + WaitSlow. Predictions are bit-identical to InferCPU and
// InferLAKE; only the request's scheduling differs.
func (p *Predictor) InferBatched(c *batcher.Client, batch [][]float32) ([]bool, error) {
	pending, err := p.SubmitBatched(c, batch)
	if err != nil {
		return nil, err
	}
	return WaitSlow(pending)
}
