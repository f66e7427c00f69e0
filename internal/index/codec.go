package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"

	"fpinterop/internal/enc"
)

// Segment encoding — an index as one merged base, the form a primary
// ships to a bootstrapping replica (AppendSegment, DecodeSegment), in
// package enc's big-endian layout:
//
//	0   4  magic "FPIX"
//	4   2  version (1)
//	6   1  blockShift
//	7   4  template count n
//	11  4  key count k
//	then per key slot, in slot order: 8 key, 4 live count
//	then per block (⌈n / 2^blockShift⌉): 4 ref count r, r × 2 block-
//	     local refs grouped by slot, k × 4 offsets (the end of each
//	     slot's bucket; the first bucket starts at 0)
//	then per template, in ref order: 4 ID length, ID bytes
//	then per template, in ref order: 4 key count, 4 key checksum
//	4   CRC-32 (IEEE) of everything before it
//
// Every posting is live and every key held, so the live counts are the
// bucket sizes and the members are what the postings add up to; the
// decoder checks both rather than trust them.
var segMagic = [4]byte{'F', 'P', 'I', 'X'}

const (
	segVersion    = 1
	segHeaderSize = 15
	// segKeySize and segTemplateSize are the least bytes a key slot
	// and a template (a one-byte ID and its member) take.
	segKeySize      = 12
	segTemplateSize = 13
	// keyLimit bounds every key packKey makes: three 8-bit side bins
	// above three 6-bit angle bins.
	keyLimit = 1 << 42
)

var (
	// ErrBadSegment reports bytes that are not a well-formed segment.
	ErrBadSegment = errors.New("index: bad segment")
	// ErrSegmentIDs reports a well-formed segment that holds other
	// templates than the caller expects.
	ErrSegmentIDs = errors.New("index: segment holds other templates")
)

func badSegment(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSegment, fmt.Sprintf(format, args...))
}

// AppendSegment appends the index's segment encoding to dst: the base
// a merge would install now, so a decoder gets the whole index in one
// base. It holds Index.mu for reading only: when the index has changed
// since its last merge, the merge is built aside (mergedSegment) and
// encoded, and the index itself is left as it was.
func (ix *Index) AppendSegment(dst []byte) []byte {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	m := merged{tab: ix.tab, slots: ix.slots, seg: ix.base}
	if len(ix.delta.ids) > 0 || ix.base.removed > 0 {
		m = ix.mergedSegment()
	}
	return m.appendTo(dst)
}

// appendTo encodes m.
func (m merged) appendTo(dst []byte) []byte {
	seg := m.seg
	k := len(m.slots)
	keys := make([]uint64, k)
	for _, c := range m.tab.cells {
		if c.key != 0 {
			keys[c.slot] = c.key - 1
		}
	}
	size := segHeaderSize + segKeySize*k + 2*seg.postings + 4
	size += len(seg.blocks) * (4 + 4*k)
	for _, id := range seg.ids {
		size += 12 + len(id)
	}
	start := len(dst)
	w := enc.Writer{Buf: slices.Grow(dst, size)}
	w.Buf = append(w.Buf, segMagic[:]...)
	w.Uint16(segVersion)
	w.Byte(byte(blockShift))
	w.Uint32(uint32(len(seg.ids)))
	w.Uint32(uint32(k))
	for s, key := range keys {
		w.Uint64(key)
		w.Uint32(m.slots[s].live)
	}
	for _, blk := range seg.blocks {
		w.Uint32(uint32(len(blk.refs)))
		for _, r := range blk.refs {
			w.Uint16(r)
		}
		for _, off := range blk.off[1:] {
			w.Uint32(off)
		}
	}
	for _, id := range seg.ids {
		w.Uint32(uint32(len(id)))
		w.Buf = append(w.Buf, id...)
	}
	for _, mb := range seg.members {
		w.Uint32(mb.keys)
		w.Uint32(mb.sum)
	}
	w.Uint32(crc32.ChecksumIEEE(w.Buf[start:]))
	return w.Buf
}

// DecodeSegment returns the index data encodes (AppendSegment), running
// with opt: all one base, equal to what Build over the same templates
// gives. Every count, offset, ref and checksum is checked before the
// index is returned, so bytes that are not a segment fail with
// ErrBadSegment and never yield an index that disagrees with its own
// postings. With ids non-nil the segment must hold exactly those
// templates (distinct IDs, any order), else the error is ErrSegmentIDs;
// the index then keeps the caller's ID strings, as Build does, instead
// of copies. The index holds no reference to data.
func DecodeSegment(opt Options, data []byte, ids []string) (*Index, error) {
	if len(data) < segHeaderSize+4 {
		return nil, badSegment("%d bytes", len(data))
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(body):]) {
		return nil, badSegment("checksum mismatch")
	}
	r := enc.Reader{Buf: body}
	if [4]byte(r.Take(4)) != segMagic {
		return nil, badSegment("magic")
	}
	if v := r.Uint16(); v != segVersion {
		return nil, badSegment("version %d", v)
	}
	if sh := r.Byte(); uint(sh) != blockShift {
		return nil, badSegment("block shift %d, this build reads %d", sh, blockShift)
	}
	n := r.Count(segTemplateSize)
	k := r.Count(segKeySize)
	if err := r.Err(); err != nil {
		return nil, badSegment("header: %v", err)
	}
	if ids != nil && len(ids) != n {
		return nil, fmt.Errorf("%w: %d templates, want %d", ErrSegmentIDs, n, len(ids))
	}

	ix := New(opt)
	ix.tab = newKeyTable(k)
	ix.slots = make([]slot, k)
	keys := make([]uint64, k)
	for s := range keys {
		key, live := r.Uint64(), r.Uint32()
		if key >= keyLimit || live == 0 {
			return nil, badSegment("slot %d: key %#x, live count %d", s, key, live)
		}
		if _, added := ix.tab.findOrAdd(key); !added {
			return nil, badSegment("key %#x twice", key)
		}
		keys[s], ix.slots[s] = key, slot{live: live}
	}

	seg := &segment{
		blocks:  make([]block, (n+1<<blockShift-1)>>blockShift),
		keys:    k,
		ids:     make([]string, n),
		members: make([]member, n),
		gone:    make([]atomic.Uint32, n),
	}
	// held is what each template's postings add up to, bucketed how
	// many postings each slot has, and mark[r] 1 + the last slot that
	// listed ref r of the block being read.
	held := make([]member, n)
	bucketed := make([]uint32, k)
	mark := make([]uint32, min(n, 1<<blockShift))
	for b := range seg.blocks {
		first := b << blockShift
		count := min(n-first, 1<<blockShift)
		rc := r.Count(2)
		refs, offs := r.Take(2*rc), r.Take(4*k)
		if err := r.Err(); err != nil {
			return nil, badSegment("block %d: %v", b, err)
		}
		blk := block{refs: make([]uint16, rc), off: make([]uint32, k+1)}
		for i := range blk.refs {
			blk.refs[i] = binary.BigEndian.Uint16(refs[2*i:])
		}
		clear(mark[:count])
		for s := range k {
			lo, hi := blk.off[s], binary.BigEndian.Uint32(offs[4*s:])
			if hi < lo || hi > uint32(rc) {
				return nil, badSegment("block %d slot %d: bucket [%d, %d) of %d refs", b, s, lo, hi, rc)
			}
			blk.off[s+1] = hi
			bucketed[s] += hi - lo
			sum := uint32(hashKey(keys[s]) >> 32)
			for _, ref := range blk.refs[lo:hi] {
				if int(ref) >= count || mark[ref] == uint32(s)+1 {
					return nil, badSegment("block %d slot %d: ref %d (%d templates, or listed twice)", b, s, ref, count)
				}
				mark[ref] = uint32(s) + 1
				m := &held[first+int(ref)]
				m.keys++
				m.sum += sum
			}
		}
		if blk.off[k] != uint32(rc) {
			return nil, badSegment("block %d: %d of %d refs in buckets", b, blk.off[k], rc)
		}
		seg.blocks[b] = blk
		seg.postings += rc
	}
	for s, sl := range ix.slots {
		if bucketed[s] != sl.live {
			return nil, badSegment("slot %d: live count %d, %d postings", s, sl.live, bucketed[s])
		}
	}

	var want map[string]int
	if ids != nil {
		want = make(map[string]int, len(ids))
		for i, id := range ids {
			want[id] = i
		}
	}
	for ref := range seg.ids {
		raw := r.Take(int(r.Uint32()))
		if r.Err() != nil || len(raw) == 0 {
			return nil, badSegment("template %d: ID missing or empty", ref)
		}
		var id string
		if want == nil {
			id = string(raw)
		} else if i, ok := want[string(raw)]; ok {
			id = ids[i]
		} else {
			return nil, fmt.Errorf("%w: %q not expected", ErrSegmentIDs, raw)
		}
		if _, dup := ix.loc[id]; dup {
			return nil, badSegment("ID %q twice", id)
		}
		ix.loc[id] = uint32(ref)
		seg.ids[ref] = id
	}
	for ref := range seg.members {
		m := member{keys: r.Uint32(), sum: r.Uint32()}
		if m != held[ref] {
			return nil, badSegment("template %q: member %+v, its postings add up to %+v", seg.ids[ref], m, held[ref])
		}
		seg.members[ref] = m
	}
	if err := r.Err(); err != nil || len(r.Buf) != 0 {
		return nil, badSegment("%d bytes after the members (%v)", len(r.Buf), err)
	}
	ix.base = seg
	ix.postings, ix.distinct = seg.postings, k
	return ix, nil
}
