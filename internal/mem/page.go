package mem

import (
	"fmt"
	"sync"

	"spamer/internal/blocks"
	"spamer/internal/config"
	"spamer/internal/sim"
)

// Page is a contiguous run of endpoint cache lines at unique addresses —
// the per-endpoint buffer the paper describes ("a producer may have a 4KiB
// page, the consumer a completely different page", §3.1).
type Page struct {
	Base  Addr
	Lines []*Line
}

// linesPerChunk sizes the dense line-table chunks. Chunks are fixed
// arrays so &chunk[i] stays valid forever (they are never moved or
// resized), which lets Pages and the routing device hold *Line into
// storage that is contiguous by value. A chunk of 32 lines is 6.4 KB
// with its cold rows, which covers the endpoints of a short run in one
// or two chunks (the three scenarios/ DAGs open 12 to 40 lines); a
// system with more lines takes one more chunk per 32, where a larger
// chunk would charge every short run for lines it never opens.
const linesPerChunk = 32

// ptrSlabBlock batches the Lines allocations: a system opens a few dozen
// endpoints (each one page), so a slab carved into the pages' Lines
// arrays turns one []*Line per endpoint into a couple of allocations per
// address space, as the blocks arena does for the Page headers. Slabs
// are never grown in place — a full one is followed by another — so the
// carved Lines slices stay valid. The first slab is embedded in the
// AddressSpace itself, so a typical space (a handful of endpoints)
// allocates nothing for its Lines arrays.
const ptrSlabBlock = 128

// chunk fuses linesPerChunk hot lines with their cold accounting rows in
// one allocation. The hot array stays dense and contiguous — cold rows
// trail it — so the cache behaviour of the line arena is unchanged while
// a chunk costs one allocation instead of a paired hot/cold pair.
type chunk struct {
	hot  [linesPerChunk]Line
	cold [linesPerChunk]lineStats
}

// AddressSpace allocates endpoint pages with unique, non-overlapping
// cache-line addresses, and resolves addresses back to lines (the routing
// device needs this to deliver stashes).
//
// The space is the system's line arena: lines are stored by value in
// fixed-size chunks and indexed by the allocation order implied by the
// address, so Lookup is two shifts and two loads — no map hashing, no
// per-line heap object — and neighbouring lines of a page share cache
// lines of the host. Each line's cold accounting half trails the hot
// array inside its chunk (see Line).
type AddressSpace struct {
	k    *sim.Kernel
	next Addr
	n    int // allocated lines; the arena's high-water mark (lines are never freed)
	// chunks holds the chunks in use. A recycled space keeps the chunks
	// of its earlier life past len, and NewPage takes them before it
	// allocates.
	chunks []*chunk

	pages blocks.Arena[Page] // the *Page headers NewPage hands out
	ptrs  []*Line            // slab carved into the Lines arrays of those pages
	// The heap slabs ptrs moved on to once the embedded one filled, in
	// order; like chunks, a recycled space keeps them past len for
	// reuse.
	ptrBlocks [][]*Line

	// Embedded first blocks: init points ptrs (and the chunks index)
	// here, so a space only hits the heap once its demand outgrows them.
	// The carved ptrs0 sub-slices are handed out, so an AddressSpace
	// must not move after construction.
	chunks0 [4]*chunk
	ptrs0   [ptrSlabBlock]*Line
}

// spaces holds released address spaces for NewAddressSpace to reuse
// (see Release).
var spaces sync.Pool

// NewAddressSpace returns an empty address space whose allocations start
// one line above address 0 (address 0 is reserved as the nil/NULL target
// of the mapping pipeline, Figure 4). It reuses the storage of a
// released space when the pool holds one.
func NewAddressSpace(k *sim.Kernel) *AddressSpace {
	as, _ := spaces.Get().(*AddressSpace)
	if as == nil {
		as = new(AddressSpace)
	}
	as.init(k)
	return as
}

// init empties the space for kernel k. It keeps the chunks, page blocks
// and slabs a released space brings (which Release emptied), so a fresh
// and a recycled space start from the same state.
func (as *AddressSpace) init(k *sim.Kernel) {
	as.k, as.next, as.n = k, Addr(config.LineBytes), 0
	if cap(as.chunks) == 0 {
		as.chunks = as.chunks0[:0]
	}
	as.chunks = as.chunks[:0]
	as.ptrs = as.ptrs0[:0]
	as.ptrBlocks = as.ptrBlocks[:0]
}

// Release hands the space's storage to a later NewAddressSpace. Call it
// only when nothing will touch the space, a Page or a Line from it
// again: the next space may already own the storage. It first zeroes
// every line and page record, which drops what they point at (the
// kernel, fill-signal waiters, fill observers), so a pooled space keeps
// no earlier simulation alive.
func (as *AddressSpace) Release() {
	for _, c := range as.chunks {
		*c = chunk{}
	}
	as.pages.Reset()
	clear(as.ptrs0[:])
	for _, b := range as.ptrBlocks {
		clear(b[:cap(b)])
	}
	as.k = nil
	spaces.Put(as)
}

// nextSlab returns an empty slab of at least n pointers: the released
// slab that follows the in-use ones, when there is one that large, or a
// new one. ptrBlocks grows by the slab either way.
func (as *AddressSpace) nextSlab(n int) []*Line {
	l := as.ptrBlocks
	if m := len(l); m < cap(l) {
		if b := l[:m+1][m]; cap(b) >= n {
			as.ptrBlocks = l[:m+1]
			return b[:0]
		}
	}
	b := make([]*Line, 0, n)
	as.ptrBlocks = append(l, b)
	return b
}

// NewPage allocates a page of n lines.
func (as *AddressSpace) NewPage(n int) *Page {
	if n <= 0 {
		panic(fmt.Sprintf("mem: NewPage(%d)", n))
	}
	p := as.pages.New()
	if cap(as.ptrs)-len(as.ptrs) < n {
		as.ptrs = as.nextSlab(max(ptrSlabBlock, n))
	}
	m := len(as.ptrs)
	as.ptrs = as.ptrs[:m+n]
	// The three-index expression caps the page's view at its own lines, so
	// an (impossible today) append on Lines could never clobber the next
	// page's slots.
	*p = Page{Base: as.next, Lines: as.ptrs[m : m+n : m+n]}
	for i := range p.Lines {
		if m := len(as.chunks); as.n == m*linesPerChunk {
			if m < cap(as.chunks) && as.chunks[:m+1][m] != nil {
				as.chunks = as.chunks[:m+1] // a released chunk
			} else {
				as.chunks = append(as.chunks, new(chunk))
			}
		}
		c := as.chunks[as.n/linesPerChunk]
		l := &c.hot[as.n%linesPerChunk]
		l.init(as.k, as.next, &c.cold[as.n%linesPerChunk])
		p.Lines[i] = l
		as.n++
		as.next += Addr(config.LineBytes)
	}
	return p
}

// CheckStructure validates the arena's slab bookkeeping: the hot and
// cold slabs stay paired chunk for chunk, the allocation count (the
// high-water mark — lines are never freed) fits the slabs exactly, every
// allocated line is linked to its matching cold row, and the address
// cursor agrees with the count. The oracle's structural walks call it
// alongside the device and specBuf walks.
func (as *AddressSpace) CheckStructure() error {
	have := len(as.chunks) * linesPerChunk
	if as.n > have || have-as.n >= linesPerChunk {
		return fmt.Errorf("mem: %d lines allocated but slabs hold %d slots", as.n, have)
	}
	if want := Addr((as.n + 1) * config.LineBytes); as.next != want {
		return fmt.Errorf("mem: address cursor %#x, want %#x for %d lines", uint64(as.next), uint64(want), as.n)
	}
	for i := 0; i < as.n; i++ {
		c := as.chunks[i/linesPerChunk]
		l := &c.hot[i%linesPerChunk]
		if l.cold != &c.cold[i%linesPerChunk] {
			return fmt.Errorf("mem: line %d (%#x) not paired with its cold row", i, uint64(l.Addr))
		}
	}
	return nil
}

// Lookup resolves a line address. It panics on unknown addresses: the
// routing device only ever holds addresses that endpoints registered.
func (as *AddressSpace) Lookup(a Addr) *Line {
	if a > 0 && a < as.next && a%Addr(config.LineBytes) == 0 {
		idx := int(a/Addr(config.LineBytes)) - 1
		return &as.chunks[idx/linesPerChunk].hot[idx%linesPerChunk]
	}
	panic(fmt.Sprintf("mem: unknown line address %#x", uint64(a)))
}

// NumLines reports how many lines have been allocated.
func (as *AddressSpace) NumLines() int { return as.n }

// Occupancy sums empty/valid tick integrals over a set of lines; the
// Figure 9 harness averages this over all consumer lines of a run.
func Occupancy(lines []*Line) (empty, valid uint64) {
	for _, l := range lines {
		e, v := l.Occupancy()
		empty += e
		valid += v
	}
	return empty, valid
}
