// Package pvdma implements Para-Virtualized Direct Memory Access (§5):
// on-demand IOMMU registration and pinning of guest memory at 2 MiB
// block granularity, with a Map Cache so repeated DMA to the same
// region costs one lightweight lookup. It also reproduces the vDB
// aliasing hazard of Figure 5 and the virtio-shm fix that eliminates it.
//
// The guest driver calls MapDMA before a device DMAs into a guest
// buffer. On a Map Cache miss, PVDMA resolves the covered guest-physical
// blocks through the container's EPT, installs the corresponding
// IOMMU entries (device address = the container's DA window) and pins
// the backing host pages. On a hit, nothing is (re)installed — which is
// exactly the behaviour that turns a stale entry into Figure 5's
// corruption when a device register was direct-mapped inside a block.
package pvdma

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Errors returned by PVDMA.
var (
	ErrUnmappedGPA      = errors.New("pvdma: GPA range has no EPT backing")
	ErrNotMapped        = errors.New("pvdma: release of unmapped range")
	ErrContainerStopped = errors.New("pvdma: container stopped")
)

// Config parameterises the manager.
type Config struct {
	// BlockSize is the pinning/registration granularity. The paper uses
	// 2 MiB to balance Map Cache size against IOMMU configuration
	// overhead; the ablation bench sweeps this.
	BlockSize uint64
}

// mapCacheHitLatency is the cost of a Map Cache lookup that finds the
// block already registered ("lightweight ... negligible latency", §5).
const mapCacheHitLatency sim.Duration = 150 * time.Nanosecond

// DefaultConfig returns the production parameters.
func DefaultConfig() Config {
	return Config{BlockSize: addr.PageSize2M}
}

// Stats are the manager's cumulative counters.
type Stats struct {
	CacheHits        uint64
	CacheMisses      uint64
	BlocksRegistered uint64
	// BlocksReleased counts Map Cache blocks torn down: refcount-zero
	// releases and fence-forced evictions alike.
	BlocksReleased uint64
	PinnedBytes    uint64
	// UnmapErrors counts IOMMU unmap failures on the evict path —
	// each one is a translation entry that may still be live after the
	// block was dropped from the Map Cache.
	UnmapErrors uint64
	// BlocksFenced counts blocks force-evicted by FenceDMA at
	// container teardown (refcounts notwithstanding).
	BlocksFenced uint64
}

// Manager runs PVDMA for one container.
//
// The Map Cache is flat: block index i = GPA / BlockSize lives in slot
// i%leafSlots of the leaf keyed i/leafSlots. Slots hold no pointers, so
// the GC never scans a leaf, and a steady-state register or evict
// allocates nothing.
type Manager struct {
	cfg        Config
	blockShift uint // log2(cfg.BlockSize): block index = GPA >> blockShift
	container  *rund.Container
	dir        []leafRef // Map Cache leaves, sorted by key
	lastLeaf   int       // dir position of the last leaf looked up
	split      []splitPair
	cached     int // blocks in the Map Cache
	refs       int // MapDMA references across cached blocks
	stats      Stats

	tr   *trace.Tracer
	host string
}

// SetTracer attaches a flight recorder; host labels the trace process
// the manager's events land under.
func (m *Manager) SetTracer(t *trace.Tracer, host string) {
	m.tr = t
	m.host = host
}

// leafSlots is the number of blocks one Map Cache leaf covers: 128 MiB
// of GPA at the default 2 MiB block.
const leafSlots = 64

type leaf [leafSlots]slot

// leafPool holds emptied Map Cache leaves for any manager's next miss,
// so a container's blocks reuse the leaves of containers torn down
// before it. A leaf goes in only once every slot is zero again, so the
// pool carries no simulation state between managers or goroutines.
var leafPool = sync.Pool{New: func() any { return new(leaf) }}

type leafRef struct {
	key   uint64 // block index / leafSlots
	live  int    // cached blocks in the leaf
	slots *leaf
}

// slot is one block's Map Cache entry; refs == 0 means not cached. It
// holds the first (IOMMU entry, guest pin) pair the block installed.
// A block the EPT splits (a direct-mapped device register inside it)
// installs more pairs; those go to Manager.split.
type slot struct {
	refs  int32
	split bool
	pair
}

// pair is one IOMMU entry a block installed at DA da, and the guest-RAM
// pin behind it (size 0 when the span is BAR-backed or failed to pin).
type pair struct {
	da  addr.DA
	pin pinRec
}

type pinRec struct {
	offset uint64
	size   uint64
}

// splitPair is an extra pair of the block at index block.
type splitPair struct {
	block uint64
	pair
}

// New builds a PVDMA manager for the container and registers it as a
// teardown DMA fence: Container.Stop force-releases the manager's
// blocks before unpinning guest memory.
func New(c *rund.Container, cfg Config) *Manager {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultConfig().BlockSize
	}
	m := &Manager{cfg: cfg, blockShift: uint(bits.TrailingZeros64(cfg.BlockSize)), container: c}
	c.RegisterDMAFence("pvdma", m)
	return m
}

// Config returns the manager configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// CachedBlocks reports how many blocks are live in the Map Cache.
func (m *Manager) CachedBlocks() int { return m.cached }

// blockAlign returns the block-aligned cover of [gpa, gpa+size).
func (m *Manager) blockAlign(gpa addr.GPA, size uint64) (first, last uint64) {
	first = addr.AlignDown(uint64(gpa), m.cfg.BlockSize)
	last = addr.AlignDown(uint64(gpa)+size-1, m.cfg.BlockSize)
	return first, last
}

// leaf returns the directory entry of the leaf holding block index idx,
// adding an empty leaf if create is set, or nil.
func (m *Manager) leaf(idx uint64, create bool) *leafRef {
	key := idx / leafSlots
	if p := m.lastLeaf; p < len(m.dir) && m.dir[p].key == key {
		return &m.dir[p]
	}
	i, ok := m.findLeaf(key)
	if !ok {
		if !create {
			return nil
		}
		m.dir = append(m.dir, leafRef{})
		copy(m.dir[i+1:], m.dir[i:])
		m.dir[i] = leafRef{key: key, slots: leafPool.Get().(*leaf)}
	}
	m.lastLeaf = i
	return &m.dir[i]
}

// findLeaf returns the directory position of key, or where it would go.
func (m *Manager) findLeaf(key uint64) (int, bool) {
	lo, hi := 0, len(m.dir)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.dir[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.dir) && m.dir[lo].key == key
}

// dropLeaf removes an emptied leaf from the directory and returns it to
// the pool, so a miss-then-release cycle does not reallocate it.
func (m *Manager) dropLeaf(ref *leafRef) {
	leafPool.Put(ref.slots)
	i, _ := m.findLeaf(ref.key)
	m.dir = append(m.dir[:i], m.dir[i+1:]...)
}

// lookup returns the slot of block index idx if the block is cached.
func (m *Manager) lookup(idx uint64) *slot {
	ref := m.leaf(idx, false)
	if ref == nil {
		return nil
	}
	if s := &ref.slots[idx%leafSlots]; s.refs > 0 {
		return s
	}
	return nil
}

// MapDMA prepares [gpa, gpa+size) for device DMA, registering and
// pinning any blocks not yet in the Map Cache, and returns the
// virtual-time cost (stage ①–③ of Figure 4). Every call takes a
// reference on each covered block; pair with ReleaseDMA. A call that
// fails takes no references: blocks it registered before the failing
// one are released again.
func (m *Manager) MapDMA(gpa addr.GPA, size uint64) (sim.Duration, error) {
	if size == 0 {
		return 0, fmt.Errorf("pvdma: empty MapDMA at %v", gpa)
	}
	if m.container.Stopped() {
		return 0, fmt.Errorf("%w: %s", ErrContainerStopped, m.container.Name())
	}
	var cost sim.Duration
	var hits, misses uint64
	first, last := m.blockAlign(gpa, size)
	idx := first >> m.blockShift
	for b := first; ; b += m.cfg.BlockSize {
		cost += mapCacheHitLatency // cache lookup always happens
		ref := m.leaf(idx, true)
		if s := &ref.slots[idx%leafSlots]; s.refs > 0 {
			m.stats.CacheHits++
			hits++
			s.refs++
		} else {
			m.stats.CacheMisses++
			misses++
			c, err := m.registerBlock(b, idx, s)
			if err != nil {
				if ref.live == 0 {
					m.dropLeaf(ref)
				}
				if b > first {
					m.release(first, b-m.cfg.BlockSize)
				}
				return cost, err
			}
			cost += c
			ref.live++
			m.cached++
			m.stats.BlocksRegistered++
		}
		m.refs++
		if b == last {
			break
		}
		idx++
	}
	if m.tr.Enabled() {
		m.tr.Complete(m.host, "pvdma", "pvdma", "map-dma", cost,
			trace.U("bytes", size), trace.U("cache-hit", hits),
			trace.U("cache-miss", misses))
	}
	return cost, nil
}

// registerBlock resolves the block's GPA span through the EPT and
// installs IOMMU entries for every backed sub-range, pinning guest-RAM
// pages, and records them in the block's empty slot s. Sub-ranges the
// EPT maps to device BARs (e.g. a direct-mapped doorbell) are installed
// in the IOMMU but not pinned — faithfully reproducing the hazard: the
// stale entry is real hardware state. On error s is left empty.
func (m *Manager) registerBlock(bgpa, idx uint64, s *slot) (sim.Duration, error) {
	c := m.container
	hyp := c.Hypervisor()
	guest := c.GuestMemory()
	blockRange := addr.Range{Start: bgpa, Size: m.cfg.BlockSize}
	var cost sim.Duration
	found := false

	c.EPT().Walk(func(src addr.GPARange, hpa addr.HPA) bool {
		if !src.Overlaps(blockRange) || rund.InSHMWindow(addr.GPA(src.Start)) {
			return true
		}
		// Intersect the EPT entry with the block.
		start := max64(src.Start, blockRange.Start)
		end := min64(src.End(), blockRange.End())
		sub := addr.Range{Start: start, Size: end - start}
		subHPA := uint64(hpa) + (start - src.Start)

		da := c.GPAToDA(addr.GPA(sub.Start))
		mapCost, err := hyp.IOMMU().Map(addr.NewDARange(da, sub.Size), addr.HPA(subHPA))
		if err != nil {
			// Already installed (e.g. racing mappings): skip silently;
			// the translation is present either way.
			return true
		}
		cost += mapCost
		p := pair{da: da}

		// Pin only guest RAM. BAR-backed spans (device registers) have
		// nothing to pin.
		if subHPA >= guest.HPA.Start && subHPA < guest.HPA.End() {
			off := subHPA - guest.HPA.Start
			pinCost, err := hyp.Memory().PinBlock(guest, off, sub.Size)
			if err == nil {
				cost += pinCost
				p.pin = pinRec{offset: off, size: sub.Size}
				m.stats.PinnedBytes += sub.Size
			}
		}
		if !found {
			s.pair = p
			found = true
		} else {
			s.split = true
			m.split = append(m.split, splitPair{block: idx, pair: p})
		}
		return true
	})

	if !found {
		return cost, fmt.Errorf("%w: block %#x", ErrUnmappedGPA, bgpa)
	}
	s.refs = 1
	return cost, nil
}

// ReleaseDMA drops one reference on each block covering the range. A
// block whose refcount reaches zero is unmapped from the IOMMU and its
// pages unpinned. Blocks still referenced stay fully installed — the
// "incorrect retention" of Figure 5 step 4 when another user (the GPU's
// command queue) holds the block. A range with any block not in the Map
// Cache is rejected whole.
func (m *Manager) ReleaseDMA(gpa addr.GPA, size uint64) error {
	if size == 0 {
		return fmt.Errorf("pvdma: empty ReleaseDMA at %v", gpa)
	}
	first, last := m.blockAlign(gpa, size)
	for b, idx := first, first>>m.blockShift; ; b, idx = b+m.cfg.BlockSize, idx+1 {
		if m.lookup(idx) == nil {
			return fmt.Errorf("%w: block %#x", ErrNotMapped, b)
		}
		if b == last {
			break
		}
	}
	m.release(first, last)
	return nil
}

// release drops one reference on each cached block from first to last
// (block-aligned GPAs), evicting those that reach zero.
func (m *Manager) release(first, last uint64) {
	for idx, end := first>>m.blockShift, last>>m.blockShift; idx <= end; idx++ {
		ref := m.leaf(idx, false)
		i := int(idx % leafSlots)
		ref.slots[i].refs--
		m.refs--
		if ref.slots[i].refs == 0 {
			m.evict(ref, i)
		}
	}
}

// evict tears down slot i of the leaf: IOMMU entries out, then guest
// pages unpinned, each in the order registerBlock installed them.
func (m *Manager) evict(ref *leafRef, i int) {
	s := &ref.slots[i]
	idx := ref.key*leafSlots + uint64(i)
	if m.tr.Enabled() {
		m.tr.Instant(m.host, "pvdma", "pvdma", "block-evict",
			trace.U("gpa", idx<<m.blockShift))
	}
	m.unmap(s.da)
	if s.split {
		for _, sp := range m.split {
			if sp.block == idx {
				m.unmap(sp.da)
			}
		}
	}
	m.unpin(s.pin)
	if s.split {
		kept := m.split[:0]
		for _, sp := range m.split {
			if sp.block == idx {
				m.unpin(sp.pin)
			} else {
				kept = append(kept, sp)
			}
		}
		m.split = kept
	}
	m.refs -= int(s.refs)
	*s = slot{}
	m.cached--
	m.stats.BlocksReleased++
	if ref.live--; ref.live == 0 {
		m.dropLeaf(ref)
	}
}

func (m *Manager) unmap(da addr.DA) {
	if err := m.container.Hypervisor().IOMMU().Unmap(da); err != nil {
		// An entry the IOMMU no longer holds where PVDMA installed
		// one means somebody else unmapped it (or the driver state
		// diverged) — either way a translation may still be live.
		// Count it; silently dropping the error hides exactly the
		// stale-entry class of bug Figure 5 is about.
		m.stats.UnmapErrors++
		m.tr.Instant(m.host, "pvdma", "pvdma", "unmap-error",
			trace.U("da", uint64(da)), trace.S("err", err.Error()))
	}
}

func (m *Manager) unpin(p pinRec) {
	if p.size == 0 {
		return
	}
	if err := m.container.Hypervisor().Memory().UnpinBlock(m.container.GuestMemory(), p.offset); err != nil {
		m.tr.Instant(m.host, "pvdma", "pvdma", "unpin-error",
			trace.U("offset", p.offset), trace.S("err", err.Error()))
	}
	m.stats.PinnedBytes -= p.size
}

// InflightRefs implements rund.DMAFence: outstanding MapDMA references
// across all cached blocks.
func (m *Manager) InflightRefs() int { return m.refs }

// FenceDMA implements rund.DMAFence: force-evict every cached block —
// IOMMU entries out, pages unpinned — regardless of refcount. Called
// by Container.Stop after device quiesce and before guest memory is
// unpinned; blocks go in GPA order so the trace is deterministic.
func (m *Manager) FenceDMA() int {
	n := m.cached
	for len(m.dir) > 0 {
		ref := &m.dir[0]
		for i := range ref.slots {
			if ref.slots[i].refs == 0 {
				continue
			}
			lastInLeaf := ref.live == 1
			m.evict(ref, i) // the leaf's last block drops it from dir
			m.stats.BlocksFenced++
			if lastInLeaf {
				break
			}
		}
	}
	return n
}

// MapDoorbellSHM explicitly installs a virtio-shm-hosted doorbell window
// in the IOMMU so the GPU can ring it via DMA (GPUDirect Async). This is
// the hypervisor mechanism §5 adds alongside the shm fix: the shm I/O
// space is not covered by PVDMA blocks, so it needs this explicit
// registration.
func (m *Manager) MapDoorbellSHM(gpa addr.GPA, hpa addr.HPARange) (sim.Duration, error) {
	if !rund.InSHMWindow(gpa) {
		return 0, fmt.Errorf("pvdma: %v is not in the shm window", gpa)
	}
	da := m.container.GPAToDA(gpa)
	return m.container.Hypervisor().IOMMU().Map(addr.NewDARange(da, hpa.Size), addr.HPA(hpa.Start))
}

// BlockRegistered reports whether the block containing gpa is in the
// Map Cache.
func (m *Manager) BlockRegistered(gpa addr.GPA) bool {
	return m.lookup(uint64(gpa)>>m.blockShift) != nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
