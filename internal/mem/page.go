package mem

import (
	"fmt"

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
// storage that is contiguous by value.
const linesPerChunk = 256

// pageArenaBlock and ptrSlabBlock batch the per-page header and Lines
// allocations: a system opens a few dozen endpoints (each one page), so
// block storage turns one Page struct + one []*Line per endpoint into a
// couple of allocations per address space. Blocks are never grown in
// place — a full block is replaced by a fresh one — so &pages[i] and the
// carved Lines slices stay valid forever. The first block of each kind
// is embedded in the AddressSpace itself, so a typical space (a handful
// of endpoints) allocates nothing for its page bookkeeping.
const (
	pageArenaBlock = 16
	ptrSlabBlock   = 128
)

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
	k      *sim.Kernel
	next   Addr
	n      int // allocated lines; the arena's high-water mark (lines are never freed)
	chunks []*chunk

	pages []Page  // block arena behind the *Page headers NewPage hands out
	ptrs  []*Line // slab carved into the Lines arrays of those pages

	// Embedded first blocks: NewAddressSpace points pages/ptrs (and the
	// chunks index) here, so a space only hits the heap once its demand
	// outgrows them. &pages0[i] and the carved ptrs0 sub-slices are
	// handed out, so an AddressSpace must not move after construction.
	chunks0 [4]*chunk
	pages0  [pageArenaBlock]Page
	ptrs0   [ptrSlabBlock]*Line
}

// NewAddressSpace returns an empty address space whose allocations start
// one line above address 0 (address 0 is reserved as the nil/NULL target
// of the mapping pipeline, Figure 4).
func NewAddressSpace(k *sim.Kernel) *AddressSpace {
	as := &AddressSpace{k: k, next: Addr(config.LineBytes)}
	as.chunks = as.chunks0[:0]
	as.pages = as.pages0[:0]
	as.ptrs = as.ptrs0[:0]
	return as
}

// NewPage allocates a page of n lines.
func (as *AddressSpace) NewPage(n int) *Page {
	if n <= 0 {
		panic(fmt.Sprintf("mem: NewPage(%d)", n))
	}
	if len(as.pages) == cap(as.pages) {
		// Fresh header block; earlier *Page pointers keep aiming into the
		// old blocks.
		as.pages = make([]Page, 0, pageArenaBlock)
	}
	as.pages = as.pages[:len(as.pages)+1]
	p := &as.pages[len(as.pages)-1]
	if cap(as.ptrs)-len(as.ptrs) < n {
		c := ptrSlabBlock
		if n > c {
			c = n
		}
		as.ptrs = make([]*Line, 0, c)
	}
	m := len(as.ptrs)
	as.ptrs = as.ptrs[:m+n]
	// The three-index expression caps the page's view at its own lines, so
	// an (impossible today) append on Lines could never clobber the next
	// page's slots.
	*p = Page{Base: as.next, Lines: as.ptrs[m : m+n : m+n]}
	for i := range p.Lines {
		if as.n%linesPerChunk == 0 {
			as.chunks = append(as.chunks, new(chunk))
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
