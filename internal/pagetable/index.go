package pagetable

import "math/bits"

// index is a pointer-free hash table from uint64 keys to int32 values:
// open addressing with linear probing, backward-shift deletion (so no
// tombstones), at most half full. The TLB keeps two, page -> slab node
// and region -> cached pages. Slots hold no pointers, so the collector
// never scans them. Deletion never shrinks the slot array,
// so only a key set above its peak allocates.
type index struct {
	slots []indexSlot // length 0 or a power of two
	n     int         // occupied slots
	shift uint        // 64 - log2(len(slots)): home(key) is the top bits
}

type indexSlot struct {
	key  uint64
	val  int32
	used bool
}

// minIndexSlots is the slot array's size on first insert.
const minIndexSlots = 16

// home is key's first probe slot: a Fibonacci hash, whose top bits stay
// well spread for the arithmetic sequences of page addresses and
// region numbers the TLB stores.
func (x *index) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the slot holding key, or -1.
func (x *index) find(key uint64) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := x.home(key); x.slots[i].used; i = (i + 1) & mask {
		if x.slots[i].key == key {
			return i
		}
	}
	return -1
}

// get returns key's value and whether key is present.
func (x *index) get(key uint64) (int32, bool) {
	if i := x.find(key); i >= 0 {
		return x.slots[i].val, true
	}
	return 0, false
}

// put sets key's value, inserting key if absent.
func (x *index) put(key uint64, val int32) {
	x.slots[x.slotFor(key)].val = val
}

// add adds d to key's value, inserting key at d if absent and deleting
// it when the value reaches zero.
func (x *index) add(key uint64, d int32) {
	i := x.slotFor(key)
	if x.slots[i].val += d; x.slots[i].val == 0 {
		x.removeAt(i)
	}
}

// slotFor returns the slot holding key, claiming an empty one (value 0)
// if key is absent. It doubles the slot array first if an insert would
// fill more than half of it.
func (x *index) slotFor(key uint64) int {
	if 2*(x.n+1) > len(x.slots) {
		if i := x.find(key); i >= 0 {
			return i
		}
		x.grow()
	}
	mask := len(x.slots) - 1
	i := x.home(key)
	for ; x.slots[i].used; i = (i + 1) & mask {
		if x.slots[i].key == key {
			return i
		}
	}
	x.slots[i] = indexSlot{key: key, used: true}
	x.n++
	return i
}

// grow doubles the slot array (to minIndexSlots from empty) and
// reinserts every key.
func (x *index) grow() {
	old := x.slots
	size := max(2*len(old), minIndexSlots)
	x.slots = make([]indexSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].used {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// removeAt empties slot i and closes the gap: each later slot of the
// probe run whose home does not lie cyclically in (hole, slot] moves back
// into the hole. Keys only ever move towards their home, so every key
// stays reachable from it without crossing an empty slot.
func (x *index) removeAt(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].used; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot{}
	x.n--
}
