package nn

import (
	"math"
	"math/rand"
	"testing"
)

// naiveForward is the reference forward pass: one plain dot-product loop
// per output, a fresh buffer per layer.
func naiveForward(n *Network, x []float32) []float32 {
	cur := x
	for _, l := range n.Layers {
		next := make([]float32, l.Out)
		for o := range next {
			sum := l.B[o]
			for i, w := range l.W[o*l.In : (o+1)*l.In] {
				sum += w * cur[i]
			}
			if l.Act == ReLU && sum < 0 {
				sum = 0
			}
			next[o] = sum
		}
		cur = next
	}
	return cur
}

// Forward and ForwardInto must reproduce the plain loop bit for bit on
// random networks, including layer widths that are not multiples of the
// unroll factor.
func TestForwardMatchesNaiveBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sizes := make([]int, 2+rng.Intn(3))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(70)
		}
		net := New(rng.Int63(), sizes...)
		for _, l := range net.Layers {
			for i := range l.B {
				l.B[i] = float32(rng.NormFloat64())
			}
		}
		var scratch []float32
		for k := 0; k < 5; k++ {
			x := make([]float32, sizes[0])
			for i := range x {
				x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
			}
			want := naiveForward(net, x)
			for name, got := range map[string][]float32{
				"Forward":     net.Forward(x),
				"ForwardInto": net.ForwardInto(x, &scratch),
			} {
				if len(got) != len(want) {
					t.Fatalf("sizes %v: %s width %d, want %d", sizes, name, len(got), len(want))
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("sizes %v: %s output %d = %v, naive loop %v", sizes, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestForwardIntoReusesScratch(t *testing.T) {
	net := New(1, 9, 64, 2)
	x := make([]float32, 9)
	var scratch []float32
	net.ForwardInto(x, &scratch)
	if len(scratch) != 66 {
		t.Fatalf("scratch grown to %d floats, want 66", len(scratch))
	}
	if n := testing.AllocsPerRun(100, func() { net.ForwardInto(x, &scratch) }); n != 0 {
		t.Fatalf("ForwardInto on warm scratch allocates %v objects/op, want 0", n)
	}
}
