package pagetable

import "math/bits"

// regionPages is how many pages one occupancy-index region covers: 2 MiB
// of 4 KiB pages, the block size PVDMA registers and evicts.
const regionPages = 512

// TLB is a bounded, page-granular translation cache with LRU eviction.
// The IOMMU's IOTLB and the PCIe devices' Address Translation Caches
// (ATC) are both instances: Figure 8's GDR performance collapse is this
// structure overflowing. Capacity is in entries ("tens of thousands of
// memory pages" per §6); each entry caches the translation of one page.
type TLB struct {
	capacity    int
	pageSize    uint64
	regionShift uint // log2(pageSize * regionPages)

	entries map[uint64]*tlbNode // page-aligned source -> node
	// regions counts the cached pages of each occupied region (source >>
	// regionShift), so InvalidateRange skips empty regions without
	// probing their pages.
	regions map[uint64]int
	head    *tlbNode // most recently used
	tail    *tlbNode // least recently used

	hits   uint64
	misses uint64
	evicts uint64
}

type tlbNode struct {
	key        uint64
	dst        uint64 // page-aligned destination
	prev, next *tlbNode
}

// NewTLB returns a cache holding up to capacity page translations of the
// given page size.
func NewTLB(capacity int, pageSize uint64) *TLB {
	if capacity < 1 {
		capacity = 1
	}
	return &TLB{
		capacity:    capacity,
		pageSize:    pageSize,
		regionShift: uint(bits.TrailingZeros64(pageSize * regionPages)),
		entries:     make(map[uint64]*tlbNode, capacity),
		regions:     make(map[uint64]int),
	}
}

// Capacity returns the maximum number of cached pages.
func (c *TLB) Capacity() int { return c.capacity }

// PageSize returns the translation granularity.
func (c *TLB) PageSize() uint64 { return c.pageSize }

// Len returns the number of cached translations.
func (c *TLB) Len() int { return len(c.entries) }

// Hits returns the cumulative hit count.
func (c *TLB) Hits() uint64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *TLB) Misses() uint64 { return c.misses }

// Evictions returns the cumulative eviction count.
func (c *TLB) Evictions() uint64 { return c.evicts }

func (c *TLB) page(a uint64) uint64 { return a &^ (c.pageSize - 1) }

func (c *TLB) region(a uint64) uint64 { return a >> c.regionShift }

func (c *TLB) detach(n *tlbNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *TLB) pushFront(n *tlbNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// drop removes n from the LRU list and both indexes.
func (c *TLB) drop(n *tlbNode) {
	c.detach(n)
	delete(c.entries, n.key)
	r := c.region(n.key)
	if k := c.regions[r]; k > 1 {
		c.regions[r] = k - 1
	} else {
		delete(c.regions, r)
	}
}

// Lookup resolves a source address through the cache. On hit it returns
// the translated address (destination page + offset) and true; on miss it
// returns false and records the miss.
func (c *TLB) Lookup(a uint64) (uint64, bool) {
	key := c.page(a)
	n, ok := c.entries[key]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	if c.head != n {
		c.detach(n)
		c.pushFront(n)
	}
	return n.dst + (a - key), true
}

// Insert caches the translation of the page containing src to the page
// containing dst, evicting the LRU entry if full.
func (c *TLB) Insert(src, dst uint64) {
	key := c.page(src)
	if n, ok := c.entries[key]; ok {
		n.dst = c.page(dst)
		if c.head != n {
			c.detach(n)
			c.pushFront(n)
		}
		return
	}
	var n *tlbNode
	if len(c.entries) >= c.capacity {
		n = c.tail // reused for the new entry
		c.drop(n)
		c.evicts++
	} else {
		n = new(tlbNode)
	}
	n.key, n.dst = key, c.page(dst)
	c.entries[key] = n
	c.regions[c.region(key)]++
	c.pushFront(n)
}

// Invalidate drops the cached translation for the page containing a, if
// present.
func (c *TLB) Invalidate(a uint64) {
	if n, ok := c.entries[c.page(a)]; ok {
		c.drop(n)
	}
}

// InvalidateRange drops every cached page overlapping [start, start+size).
// It visits only occupied regions: it walks the range's regions when the
// range spans no more regions than are occupied, and otherwise ranges
// over the occupied ones.
func (c *TLB) InvalidateRange(start, size uint64) {
	if size == 0 {
		return
	}
	first, last := c.page(start), c.page(start+size-1)
	r0, r1 := c.region(first), c.region(last)
	if r1-r0 < uint64(len(c.regions)) {
		for r := r0; ; r++ {
			if k, ok := c.regions[r]; ok {
				c.invalidateRegion(r, k, first, last)
			}
			if r == r1 {
				return
			}
		}
	}
	for r, k := range c.regions {
		if r >= r0 && r <= r1 {
			c.invalidateRegion(r, k, first, last)
		}
	}
}

// invalidateRegion drops the cached pages of region r, which holds k,
// that lie in [first, last], stopping once the region is empty. It
// updates r's count once, not per dropped page.
func (c *TLB) invalidateRegion(r uint64, k int, first, last uint64) {
	lo := max(first, r<<c.regionShift)
	hi := min(last, r<<c.regionShift+(c.pageSize*regionPages-c.pageSize))
	for p := lo; k > 0; p += c.pageSize {
		if n, ok := c.entries[p]; ok {
			c.detach(n)
			delete(c.entries, p)
			k--
		}
		if p >= hi {
			break
		}
	}
	if k == 0 {
		delete(c.regions, r)
	} else {
		c.regions[r] = k
	}
}

// Flush drops every entry (counters persist).
func (c *TLB) Flush() {
	clear(c.entries)
	clear(c.regions)
	c.head, c.tail = nil, nil
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *TLB) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
