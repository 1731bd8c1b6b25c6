package cuda

import (
	"encoding/binary"
	"fmt"
	"math"

	"lakego/internal/gpu"
)

// PutFloat32s encodes vals little-endian into dst, which must hold
// 4*len(vals) bytes. It is the host-side marshalling helper every workload
// uses to stage tensors into device (or shared) memory.
func PutFloat32s(dst []byte, vals []float32) error {
	if len(dst) < 4*len(vals) {
		return fmt.Errorf("cuda: buffer %d bytes, need %d", len(dst), 4*len(vals))
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	return nil
}

// Float32s decodes n little-endian float32 values from src into a new
// slice.
func Float32s(src []byte, n int) ([]float32, error) { return Float32sInto(nil, src, n) }

// Float32sInto decodes n little-endian float32 values from src into dst,
// reusing its capacity when it suffices (a nil dst always allocates), and
// returns the filled dst[:n].
func Float32sInto(dst []float32, src []byte, n int) ([]float32, error) {
	if len(src) < 4*n {
		return nil, fmt.Errorf("cuda: buffer %d bytes, need %d", len(src), 4*n)
	}
	if dst == nil || cap(dst) < n {
		dst = make([]float32, n)
	}
	out := dst[:n]
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out, nil
}

// VecAddKernel returns the classic element-wise c = a + b kernel over
// float32 vectors. Args: [aPtr, bPtr, cPtr, n]. The quickstart example and
// the remoting tests use it as the minimal end-to-end device computation.
func VecAddKernel() *Kernel {
	return &Kernel{
		Name: "vecadd",
		Flops: func(args []uint64) float64 {
			if len(args) != 4 {
				return 0
			}
			return float64(args[3]) // one add per element
		},
		Body: func(dev *gpu.Device, args []uint64) error {
			if len(args) != 4 {
				return fmt.Errorf("vecadd: want 4 args, got %d", len(args))
			}
			n := int(args[3])
			abuf, err := dev.Bytes(gpu.DevPtr(args[0]))
			if err != nil {
				return err
			}
			bbuf, err := dev.Bytes(gpu.DevPtr(args[1]))
			if err != nil {
				return err
			}
			cbuf, err := dev.Bytes(gpu.DevPtr(args[2]))
			if err != nil {
				return err
			}
			av, err := Float32s(abuf, n)
			if err != nil {
				return err
			}
			bv, err := Float32s(bbuf, n)
			if err != nil {
				return err
			}
			cv := make([]float32, n)
			for i := range cv {
				cv[i] = av[i] + bv[i]
			}
			return PutFloat32s(cbuf, cv)
		},
	}
}
