// Package blocks provides the storage a recycled system (see
// spamer.System.Release) reuses. Arena is the block storage behind the
// records a simulated system hands out by pointer: the kernel's tasks,
// the line arena's pages, and the queue library's queues and endpoints.
// A system builds a few dozen of each at setup, so
// block storage turns one heap object per record into one per block,
// and a recycled system hands the same blocks out again instead of
// allocating them. Resize does the same for the fixed-size tables of the
// routing device and the specBuf.
package blocks

// Size is the number of records in one block.
const Size = 16

// Arena stores records of type T in blocks of Size that never move, so
// a pointer New returns stays valid until Reset. Blocks are allocated
// as the arena fills, the first on the first New, and Reset keeps them,
// so a recycled arena allocates nothing.
type Arena[T any] struct {
	n      int
	blocks [][]T
}

// New returns the next record, zeroed.
func (a *Arena[T]) New() *T {
	if a.n == len(a.blocks)*Size {
		a.blocks = append(a.blocks, make([]T, Size))
	}
	r := a.At(a.n)
	a.n++
	return r
}

// Len reports how many records New has handed out since the last Reset.
func (a *Arena[T]) Len() int { return a.n }

// At returns the i-th record New handed out.
func (a *Arena[T]) At(i int) *T { return &a.blocks[i/Size][i%Size] }

// Reset zeroes every record handed out, which drops whatever they point
// at, and empties the arena. It keeps the blocks, so New hands them out
// again.
func (a *Arena[T]) Reset() {
	for b := 0; b*Size < a.n; b++ {
		clear(a.blocks[b])
	}
	a.n = 0
}

// Resize returns s with n zeroed elements. It reuses the array of s
// when that holds at least n and at most 2n elements, so a recycled
// table never pins much more than the run using it needs: a run with
// huge tables leaves them to the garbage collector.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n || cap(s) > 2*n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
