// Package pagetable implements the address-translation tables of Figure
// 1a: guest page tables (GVA→GPA) and the Extended Page Table
// (GPA→HPA), plus a generic bounded translation cache (TLB) reused by
// the IOMMU's IOTLB and the RNIC's ATC.
//
// Tables are interval-based rather than radix trees: a mapping covers a
// contiguous source range and translates by offset. This is exact for
// the simulator (regions are contiguous, see internal/mem) and keeps a
// 1.6 TB container's table at a handful of entries.
package pagetable

import (
	"errors"
	"fmt"

	"repro/internal/addr"
)

// Errors returned by table operations.
var (
	ErrOverlap  = errors.New("pagetable: mapping overlaps existing entry")
	ErrNotFound = errors.New("pagetable: no mapping")
	// ErrWrap rejects a source range whose end does not fit in 64 bits.
	ErrWrap = errors.New("pagetable: mapping wraps past the end of the address space")
)

type entry struct {
	src addr.Range
	dst uint64
}

// Table is an interval-based translation table from one 64-bit address
// space to another.
//
// The live entries are the window base[off:off+n] of one backing array,
// sorted by src.Start and non-overlapping. Map and Unmap shift whichever
// side of the window is shorter, so removing the oldest entry of a
// FIFO-evicted table (PVDMA's 2 MiB blocks) is off++ rather than a
// memmove of every entry behind it. The array grows only when the window
// fills it, or nearly so: a back that is full while a quarter of the
// array lies free in front slides the window down instead.
type Table struct {
	name   string
	base   []entry
	off, n int
}

// New returns an empty table; name appears in error messages.
func New(name string) *Table { return &Table{name: name} }

// Len returns the number of mappings.
func (t *Table) Len() int { return t.n }

// live returns the window of installed entries.
func (t *Table) live() []entry { return t.base[t.off : t.off+t.n] }

// search returns the window index of the first entry ending above a.
// It checks the window's two ends first: a FIFO-evicted table maps at the
// back and unmaps at the front.
func (t *Table) search(a uint64) int {
	es := t.live()
	if len(es) == 0 || es[0].src.End() > a {
		return 0
	}
	lo, hi := 1, len(es)
	if es[hi-1].src.End() <= a {
		return hi
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].src.End() > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Map installs src → dst+offset for every address in src. It rejects
// overlap with an existing entry: silently shadowing translations is the
// failure mode behind the PVDMA hazard, and the model surfaces it. It
// also rejects a range that wraps past 2^64, which would break the
// table's order.
func (t *Table) Map(src addr.Range, dst uint64) error {
	if src.Size == 0 {
		return fmt.Errorf("pagetable %s: empty mapping at %#x", t.name, src.Start)
	}
	if src.End() <= src.Start {
		return fmt.Errorf("%w: %s %#x+%#x", ErrWrap, t.name, src.Start, src.Size)
	}
	i := t.search(src.Start)
	if i < t.n && t.base[t.off+i].src.Overlaps(src) {
		return fmt.Errorf("%w: %s %v vs %v", ErrOverlap, t.name, src, t.base[t.off+i].src)
	}
	t.insert(i, entry{src: src, dst: dst})
	return nil
}

// insert places e at window index i, moving the shorter side of the
// window by one slot where there is room for it.
func (t *Table) insert(i int, e entry) {
	front := i < t.n-i
	switch {
	case front && t.off > 0:
	case t.off+t.n < len(t.base):
		front = false
	case t.off > 0 && 4*t.off >= len(t.base):
		// The back is full but a quarter of the array is free in
		// front: slide the window down rather than grow.
		copy(t.base, t.live())
		t.off = 0
		front = false
	default:
		t.grow(front)
	}
	if front {
		copy(t.base[t.off-1:], t.base[t.off:t.off+i])
		t.off--
	} else {
		copy(t.base[t.off+i+1:t.off+t.n+1], t.base[t.off+i:t.off+t.n])
	}
	t.base[t.off+i] = e
	t.n++
}

// grow doubles the backing array. An insert into the front half centres
// the window so the front has room; otherwise the window starts at 0.
func (t *Table) grow(front bool) {
	base := make([]entry, max(2*len(t.base), 4))
	off := 0
	if front {
		off = (len(base) - t.n) / 2
	}
	copy(base[off:], t.live())
	t.base, t.off = base, off
}

// Unmap removes the mapping whose source range starts at srcStart and
// returns its source range.
func (t *Table) Unmap(srcStart uint64) (addr.Range, error) {
	i := t.search(srcStart)
	if i >= t.n || t.base[t.off+i].src.Start != srcStart {
		return addr.Range{}, fmt.Errorf("%w: %s unmap %#x", ErrNotFound, t.name, srcStart)
	}
	src := t.base[t.off+i].src
	t.cut(i, i+1)
	return src, nil
}

// cut removes the window entries [i, j), moving whichever side of the
// window is shorter.
func (t *Table) cut(i, j int) {
	d := j - i
	if i < t.n-j {
		copy(t.base[t.off+d:], t.base[t.off:t.off+i])
		t.off += d
	} else {
		copy(t.base[t.off+i:], t.base[t.off+j:t.off+t.n])
	}
	if t.n -= d; t.n == 0 {
		t.off = 0
	}
}

// Punch removes r from every overlapping mapping, splitting entries
// that straddle its edges while preserving their offset translation.
// It models remapping a hole inside a larger region (e.g. direct-mapping
// a device register into a GPA range the EPT covers as RAM). The
// overlapping entries are one run of the window, which Punch cuts in
// place: it allocates only when the hole splits one entry in two.
func (t *Table) Punch(r addr.Range) {
	if r.Size == 0 {
		return
	}
	i := t.search(r.Start)
	j := i
	for j < t.n && t.base[t.off+j].src.Start < r.End() {
		j++
	}
	if i == j {
		return
	}
	var keep [2]entry
	k := 0
	if e := t.base[t.off+i]; e.src.Start < r.Start {
		keep[k] = entry{src: addr.Range{Start: e.src.Start, Size: r.Start - e.src.Start}, dst: e.dst}
		k++
	}
	if e := t.base[t.off+j-1]; e.src.End() > r.End() {
		keep[k] = entry{src: addr.Range{Start: r.End(), Size: e.src.End() - r.End()}, dst: e.dst + (r.End() - e.src.Start)}
		k++
	}
	if k > j-i {
		t.base[t.off+i] = keep[0]
		t.insert(i+1, keep[1])
		return
	}
	copy(t.base[t.off+i:], keep[:k])
	if i+k < j {
		t.cut(i+k, j)
	}
}

// Translate maps a source address to its destination, reporting whether
// a mapping exists.
func (t *Table) Translate(a uint64) (uint64, bool) {
	i := t.search(a)
	if i < t.n {
		if e := &t.base[t.off+i]; e.src.Contains(a) {
			return e.dst + (a - e.src.Start), true
		}
	}
	return 0, false
}

// LookupRange returns the mapping covering a, if any.
func (t *Table) LookupRange(a uint64) (src addr.Range, dst uint64, ok bool) {
	i := t.search(a)
	if i < t.n {
		if e := &t.base[t.off+i]; e.src.Contains(a) {
			return e.src, e.dst, true
		}
	}
	return addr.Range{}, 0, false
}

// Walk calls fn for each mapping in source order; returning false stops.
func (t *Table) Walk(fn func(src addr.Range, dst uint64) bool) {
	for _, e := range t.live() {
		if !fn(e.src, e.dst) {
			return
		}
	}
}

// GuestPT translates guest-virtual to guest-physical addresses.
type GuestPT struct{ t Table }

// NewGuestPT returns an empty guest page table.
func NewGuestPT() *GuestPT { return &GuestPT{t: Table{name: "guest-pt"}} }

// Map installs a GVA→GPA mapping.
func (p *GuestPT) Map(src addr.GVARange, dst addr.GPA) error { return p.t.Map(src.Range, uint64(dst)) }

// Translate resolves a GVA to a GPA.
func (p *GuestPT) Translate(a addr.GVA) (addr.GPA, bool) {
	d, ok := p.t.Translate(uint64(a))
	return addr.GPA(d), ok
}

// Len returns the number of mappings.
func (p *GuestPT) Len() int { return p.t.Len() }

// EPT is the Extended Page Table: the hardware-assisted GPA→HPA mapping
// the hypervisor registers for a RunD container (§2). Stellar's direct
// memory mapping of the vDB also lives here (§5 Step 1).
type EPT struct{ t Table }

// NewEPT returns an empty extended page table.
func NewEPT() *EPT { return &EPT{t: Table{name: "ept"}} }

// Map installs a GPA→HPA mapping.
func (p *EPT) Map(src addr.GPARange, dst addr.HPA) error { return p.t.Map(src.Range, uint64(dst)) }

// Unmap removes the mapping starting at start.
func (p *EPT) Unmap(start addr.GPA) error {
	_, err := p.t.Unmap(uint64(start))
	return err
}

// Translate resolves a GPA to an HPA.
func (p *EPT) Translate(a addr.GPA) (addr.HPA, bool) {
	d, ok := p.t.Translate(uint64(a))
	return addr.HPA(d), ok
}

// Punch removes the GPA range from the EPT, splitting straddling
// entries, so a device window can be direct-mapped in its place.
func (p *EPT) Punch(r addr.GPARange) { p.t.Punch(r.Range) }

// Len returns the number of mappings.
func (p *EPT) Len() int { return p.t.Len() }

// Walk iterates the EPT mappings in GPA order.
func (p *EPT) Walk(fn func(src addr.GPARange, dst addr.HPA) bool) {
	p.t.Walk(func(src addr.Range, dst uint64) bool {
		return fn(addr.GPARange{Range: src}, addr.HPA(dst))
	})
}
