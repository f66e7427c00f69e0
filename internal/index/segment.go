package index

import (
	"math/bits"
	"sync/atomic"
)

// keyTable is an open-addressing map from a uint64 key to a dense slot
// number, handed out in insertion order. It is kept at most half full
// and never deletes a single key: the index's table is rebuilt at every
// merge, and key extraction resets its dedup set per template.
type keyTable struct {
	cells []keyCell
	shift uint
	n     int
}

type keyCell struct {
	key  uint64 // key+1; 0 marks an empty cell
	slot uint32
}

// newKeyTable returns a table that holds n keys without growing.
func newKeyTable(n int) keyTable {
	size := 64
	for size < 2*n {
		size <<= 1
	}
	return keyTable{cells: make([]keyCell, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// hashKey spreads a key over 64 bits (Fibonacci hashing); callers keep
// the top bits.
func hashKey(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// reset empties the table, keeping its capacity.
func (t *keyTable) reset() {
	clear(t.cells)
	t.n = 0
}

// find returns the slot of key.
//
//fpvet:hotpath
func (t *keyTable) find(key uint64) (uint32, bool) {
	if len(t.cells) == 0 {
		return 0, false
	}
	key++
	mask := uint64(len(t.cells) - 1)
	for i := hashKey(key) >> t.shift; ; i = (i + 1) & mask {
		switch c := &t.cells[i]; c.key {
		case key:
			return c.slot, true
		case 0:
			return 0, false
		}
	}
}

// findOrAdd returns the slot of key, assigning the next free slot when
// the key is new.
func (t *keyTable) findOrAdd(key uint64) (slot uint32, added bool) {
	if 2*(t.n+1) > len(t.cells) {
		t.grow()
	}
	key++
	mask := uint64(len(t.cells) - 1)
	for i := hashKey(key) >> t.shift; ; i = (i + 1) & mask {
		switch c := &t.cells[i]; c.key {
		case key:
			return c.slot, false
		case 0:
			c.key, c.slot = key, uint32(t.n)
			t.n++
			return c.slot, true
		}
	}
}

func (t *keyTable) grow() {
	old := t.cells
	*t = newKeyTable(2 * t.n)
	t.n = 0
	mask := uint64(len(t.cells) - 1)
	for _, c := range old {
		if c.key == 0 {
			continue
		}
		i := hashKey(c.key) >> t.shift
		for t.cells[i].key != 0 {
			i = (i + 1) & mask
		}
		t.cells[i] = c
		t.n++
	}
}

// slot is what the index knows about one key: 8 bytes, since a gallery
// holds tens of thousands of keys and only those written since the last
// merge have delta postings.
type slot struct {
	// live counts the templates, base or delta, holding the key now:
	// the bucket size a freshly built index would have. The key's base
	// buckets may hold removed templates; live does not count them.
	live uint32
	// delta is 1 + the index in delta.lists of the delta refs holding
	// the key, or 0 when no delta template holds it.
	delta uint32
}

// blockShift is the log2 of the templates one base block holds: 16, the
// width of the uint16 refs a block stores. Tests shrink it to spread a
// small gallery over several blocks, before they build any index.
var blockShift uint = 16

// segment is the index's base: every posting of the templates merged so
// far, cut into blocks of 1<<blockShift templates. Base ref r is
// template r&(1<<blockShift-1) of block r>>blockShift. blocks and ids never change once the
// segment is published, so a vote streams them holding no lock; members
// and removed (guarded by Index.mu) and gone (atomic) record the
// removals since.
type segment struct {
	blocks []block
	// keys counts the slots the blocks have buckets for: the keys live
	// at the merge. A key first seen since has no base bucket.
	keys int
	// postings counts the refs in all blocks.
	postings int
	// ids maps a ref to its template ID. A removed template keeps its
	// entry: a vote that began before the removal still reports it.
	ids []string
	// members holds each live template's key count and checksum.
	members []member
	// gone[ref] is 0 while the template is live, else its 1-based
	// position in this segment's removal order. A vote that saw
	// removed == n when it took its weights treats refs with
	// gone in [1, n] as dead and every other as live.
	gone    []atomic.Uint32
	removed uint32
}

// block holds the postings of one run of templates as refs relative to
// its first template, grouped by key slot in slot order: slot s's bucket
// is refs[off[s]:off[s+1]], so its {lo, hi} span costs 4 bytes.
type block struct {
	refs []uint16
	off  []uint32
}

// bucket returns the block-local refs of slot s's bucket in block b.
func (seg *segment) bucket(b int, s uint32) []uint16 {
	blk := &seg.blocks[b]
	return blk.refs[blk.off[s]:blk.off[s+1]]
}

var emptySegment = &segment{}

// member is what the index keeps of one template: how many keys it was
// added under and their checksum, so RemoveKeys can refuse keys that
// are not those — 8 bytes, not the template or the ≈ 3.6 KB key list.
type member struct {
	keys, sum uint32
}

// keySum is a member's checksum of its keys: a sum of mixed keys, so it
// does not depend on their order.
func keySum(keys []uint64) uint32 {
	var sum uint32
	for _, k := range keys {
		sum += uint32(hashKey(k) >> 32)
	}
	return sum
}

// deadRef marks a removed template in a merge's ref remapping.
const deadRef = ^uint32(0)
