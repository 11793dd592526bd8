package tensor

import "sync"

// Scratch arena: size-class-bucketed sync.Pools of float32 storage, plus a
// uint64 sibling for packed bit planes. The convolution and dense layers
// in internal/nn borrow their im2col, gradient and bit-plane scratch here
// instead of allocating a fresh buffer per call, so steady-state inference
// runs allocation-free in the compute core.
//
// Ownership rule: whoever Borrows a tensor owns it until it either calls
// Release or hands the tensor to an owner with a longer lifetime (e.g.
// Conv2D keeps its borrowed im2col matrix across Forward(train=true) and
// releases it at the end of Backward). A released tensor must never be
// used again; in particular no view of it (Reshape shares storage) may
// escape to callers.

const (
	minScratchBits = 6  // smallest pooled class: 64 floats
	maxScratchBits = 24 // largest pooled class: 16M floats (64 MiB)
)

// arena is one power-of-two size-class pool per pooled length.
type arena[T any] [maxScratchBits - minScratchBits + 1]sync.Pool

var (
	floatArena arena[float32]
	wordArena  arena[uint64]
)

// borrow returns a slice of length n with unspecified contents. Lengths
// outside the pooled size classes fall back to make.
func (a *arena[T]) borrow(n int) []T {
	c := scratchClass(n)
	if c < 0 {
		return make([]T, n)
	}
	if p, _ := a[c].Get().(*[]T); p != nil {
		return (*p)[:n]
	}
	return make([]T, 1<<(minScratchBits+c))[:n]
}

// release returns s's storage to its class; storage whose capacity is not
// exactly a class size is dropped.
func (a *arena[T]) release(s []T) {
	d := s[:cap(s)]
	if c := scratchClass(len(d)); c >= 0 && len(d) == 1<<(minScratchBits+c) {
		a[c].Put(&d)
	}
}

// scratchClass returns the pool index whose class size (1<<bits) is the
// smallest holding n, or -1 when n is outside the pooled range.
func scratchClass(n int) int {
	if n <= 0 || n > 1<<maxScratchBits {
		return -1
	}
	c := 0
	for n > 1<<(minScratchBits+c) {
		c++
	}
	return c
}

// Borrow returns a tensor of the given shape backed by pooled storage. The
// contents are unspecified: callers must fully define every element before
// reading (the *Into kernels do — GemmInto and Col2ImInto overwrite dst,
// Im2ColInto zeroes the positions it does not fill). Use New when zeroed
// storage is required.
func Borrow(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return New(shape...) // delegate the panic message
		}
		n *= d
	}
	if scratchClass(n) < 0 {
		return New(shape...)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: floatArena.borrow(n)}
}

// Release returns a borrowed tensor's storage to the arena. The caller must
// not use t (or any view of it) afterwards. Tensors whose storage did not
// come from Borrow are dropped silently, so Release(t) is always safe on a
// tensor the caller exclusively owns. Release(nil) is a no-op.
func Release(t *Tensor) {
	if t == nil {
		return
	}
	d := t.data
	t.data, t.shape = nil, nil
	floatArena.release(d)
}

// BorrowWords returns a uint64 scratch slice of length n with unspecified
// contents, the storage of packed bit planes.
func BorrowWords(n int) []uint64 { return wordArena.borrow(n) }

// ReleaseWords returns a slice obtained from BorrowWords to the arena. The
// caller must not use s afterwards.
func ReleaseWords(s []uint64) { wordArena.release(s) }
