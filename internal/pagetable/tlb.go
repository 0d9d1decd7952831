package pagetable

import (
	"math"
	"math/bits"
)

// regionPages is how many pages one occupancy-index region covers: 2 MiB
// of 4 KiB pages, the block size PVDMA registers and evicts.
const regionPages = 512

// TLB is a bounded, page-granular translation cache with LRU eviction.
// The IOMMU's IOTLB and the PCIe devices' Address Translation Caches
// (ATC) are both instances: Figure 8's GDR performance collapse is this
// structure overflowing. Capacity is in entries ("tens of thousands of
// memory pages" per §6); each entry caches the translation of one page.
//
// Nodes live in one pointer-free slab linked by int32 indices, with a
// free list of dropped nodes, and the page index maps to slab indices
// in a pointer-free hash table, so the collector scans neither. The
// slab and the indexes grow with the cached pages; nothing is sized to
// capacity up front.
type TLB struct {
	capacity    int
	pageSize    uint64
	regionShift uint // log2(pageSize * regionPages)

	nodes   []tlbNode
	free    int32 // first free slab node, or nilNode
	entries index // page-aligned source -> slab index
	// regions counts the cached pages of each occupied region (source >>
	// regionShift), so InvalidateRange skips empty regions without
	// probing their pages.
	regions index
	head    int32 // most recently used, or nilNode
	tail    int32 // least recently used, or nilNode

	hits   uint64
	misses uint64
	evicts uint64
}

// nilNode is the null slab index.
const nilNode = -1

type tlbNode struct {
	key        uint64
	dst        uint64 // page-aligned destination
	prev, next int32  // LRU neighbours; next also links the free list
}

// NewTLB returns a cache holding up to capacity page translations of the
// given page size, which must be a power of two.
func NewTLB(capacity int, pageSize uint64) *TLB {
	capacity = min(max(capacity, 1), math.MaxInt32)
	return &TLB{
		capacity:    capacity,
		pageSize:    pageSize,
		regionShift: uint(bits.TrailingZeros64(pageSize * regionPages)),
		free:        nilNode,
		head:        nilNode,
		tail:        nilNode,
	}
}

// Len returns the number of cached translations.
func (c *TLB) Len() int { return c.entries.n }

// Hits returns the cumulative hit count.
func (c *TLB) Hits() uint64 { return c.hits }

// Misses returns the cumulative miss count.
func (c *TLB) Misses() uint64 { return c.misses }

// Evictions returns the cumulative eviction count.
func (c *TLB) Evictions() uint64 { return c.evicts }

func (c *TLB) page(a uint64) uint64 { return a &^ (c.pageSize - 1) }

func (c *TLB) region(a uint64) uint64 { return a >> c.regionShift }

func (c *TLB) detach(i int32) {
	n := &c.nodes[i]
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *TLB) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = nilNode, c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == nilNode {
		c.tail = i
	}
}

// release unlinks node i from the LRU list and puts it on the free list.
func (c *TLB) release(i int32) {
	c.detach(i)
	c.nodes[i].next = c.free
	c.free = i
}

// alloc returns a node from the free list, or a fresh slab node,
// doubling the slab (up to capacity) when it is full. The caller
// guarantees fewer than capacity nodes are live.
func (c *TLB) alloc() int32 {
	if i := c.free; i != nilNode {
		c.free = c.nodes[i].next
		return i
	}
	k := len(c.nodes)
	if k == cap(c.nodes) {
		nodes := make([]tlbNode, k, min(max(2*k, 16), c.capacity))
		copy(nodes, c.nodes)
		c.nodes = nodes
	}
	c.nodes = c.nodes[:k+1]
	return int32(k)
}

// unindex removes the page key, held in entries slot e, from both
// indexes.
func (c *TLB) unindex(e int, key uint64) {
	c.entries.removeAt(e)
	c.regions.add(c.region(key), -1)
}

// Lookup resolves a source address through the cache. On hit it returns
// the translated address (destination page + offset) and true; on miss it
// returns false and records the miss.
func (c *TLB) Lookup(a uint64) (uint64, bool) {
	key := c.page(a)
	i, ok := c.entries.get(key)
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	if c.head != i {
		c.detach(i)
		c.pushFront(i)
	}
	return c.nodes[i].dst + (a - key), true
}

// Insert caches the translation of the page containing src to the page
// containing dst, evicting the LRU entry if full.
func (c *TLB) Insert(src, dst uint64) {
	key := c.page(src)
	if i, ok := c.entries.get(key); ok {
		c.nodes[i].dst = c.page(dst)
		if c.head != i {
			c.detach(i)
			c.pushFront(i)
		}
		return
	}
	var i int32
	if c.entries.n >= c.capacity {
		i = c.tail // reused for the new entry
		c.detach(i)
		old := c.nodes[i].key
		c.unindex(c.entries.find(old), old)
		c.evicts++
	} else {
		i = c.alloc()
	}
	n := &c.nodes[i]
	n.key, n.dst = key, c.page(dst)
	c.entries.put(key, i)
	c.regions.add(c.region(key), 1)
	c.pushFront(i)
}

// InvalidateRange drops every cached page overlapping [start, start+size).
// It visits only occupied regions: it walks the range's regions when the
// range spans no more regions than are occupied, and otherwise scans the
// region index's slots.
func (c *TLB) InvalidateRange(start, size uint64) {
	if size == 0 || c.regions.n == 0 {
		return
	}
	first, last := c.page(start), c.page(start+size-1)
	r0, r1 := c.region(first), c.region(last)
	if r1-r0 < uint64(c.regions.n) {
		for r := r0; ; r++ {
			if k, ok := c.regions.get(r); ok {
				c.invalidateRegion(r, k, first, last)
			}
			if r == r1 {
				return
			}
		}
	}
	// Scan the slots once round, starting just after an empty one, so
	// every probe run lies ahead of the scan. Dropping a region deletes
	// it by backward shift, which moves only regions the scan has not
	// reached yet, and none further back than the slot just read: so
	// that slot is read again before the scan moves on, and no region is
	// skipped or visited twice.
	slots := c.regions.slots
	mask := len(slots) - 1
	s := 0
	for slots[s].used {
		s++
	}
	for j := 1; j <= mask; j++ {
		i := (s + j) & mask
		for slots[i].used {
			r := slots[i].key
			if r < r0 || r > r1 || !c.invalidateRegion(r, slots[i].val, first, last) {
				break
			}
		}
	}
}

// invalidateRegion drops the cached pages of region r, which holds k,
// that lie in [first, last], stopping once the region is empty. It
// updates r's count once, not per dropped page, and reports whether it
// emptied the region.
func (c *TLB) invalidateRegion(r uint64, k int32, first, last uint64) bool {
	lo := max(first, r<<c.regionShift)
	hi := min(last, r<<c.regionShift+(c.pageSize*regionPages-c.pageSize))
	dropped := int32(0)
	for p := lo; dropped < k; p += c.pageSize {
		if e := c.entries.find(p); e >= 0 {
			c.release(c.entries.slots[e].val)
			c.entries.removeAt(e)
			dropped++
		}
		if p >= hi {
			break
		}
	}
	if dropped > 0 {
		c.regions.add(r, -dropped)
	}
	return dropped == k
}
