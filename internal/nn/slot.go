package nn

import "sync/atomic"

// ForwardFunc computes one item's output: the forward hook the offload
// runner and the batcher call per item. With a non-nil scratch the
// activations are written into *scratch and the output aliases it
// (Network.ForwardInto); with nil scratch the output is freshly allocated
// and belongs to the caller.
type ForwardFunc func(x []float32, scratch *[]float32) []float32

// Slot is a hot-swappable serving network. Store binds the network's
// forward function once and publishes it together with the network, so
// resolving the forward per batch is one atomic load that allocates
// nothing, and a batch that resolves it once never mixes model versions.
type Slot struct {
	cur atomic.Pointer[binding]
}

type binding struct {
	net *Network
	fwd ForwardFunc
}

// Load returns the serving network.
func (s *Slot) Load() *Network { return s.cur.Load().net }

// Store makes net the serving network.
func (s *Slot) Store(net *Network) { s.cur.Store(&binding{net: net, fwd: net.ForwardInto}) }

// Forward returns the serving network's bound forward function; it is the
// ForwardProvider a hot-swappable model hands to the runner and batcher.
func (s *Slot) Forward() ForwardFunc { return s.cur.Load().fwd }

// Swap replaces the serving network with net — the model lifecycle's
// hot-swap hook. check validates only a network whose layer geometry
// differs from the serving one's, so a same-shape flip is admitted without
// it. Batches already in flight finish on the network they resolved.
func (s *Slot) Swap(net *Network, check func(*Network) error) error {
	if !SameShape(s.Load(), net) {
		if err := check(net); err != nil {
			return err
		}
	}
	s.Store(net)
	return nil
}
