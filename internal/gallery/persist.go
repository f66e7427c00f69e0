package gallery

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"fpinterop/internal/enc"
	"fpinterop/internal/index"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/par"
)

// Template-set encoding — the one serialized form of a gallery, which
// the WAL snapshot (FPWS) embeds and replica bootstrap ships:
//
//	0   4  magic "FPGD"
//	4   2  version (1)
//	6   4  entry count
//	then per entry one enrollment tuple (see package enc)
var (
	storeMagic = [4]byte{'F', 'P', 'G', 'D'}

	// ErrBadStoreFormat reports a stream that is not a serialized gallery.
	ErrBadStoreFormat = errors.New("gallery: bad store format")
)

const storeVersion = 1

// AppendTo appends the enrollment to w as one tuple, the template in
// the minutiae codec: an FPGD entry, and the item of the wire's enroll
// and batch messages.
func (e Export) AppendTo(w *enc.Writer) error {
	data, err := minutiae.Marshal(e.Template)
	if err != nil {
		return err
	}
	return w.Enrollment(e.ID, e.DeviceID, data)
}

// DecodeExport consumes one enrollment tuple from r.
func DecodeExport(r *enc.Reader) (Export, error) {
	id, dev, data := r.Enrollment()
	if err := r.Err(); err != nil {
		return Export{}, err
	}
	tpl, err := minutiae.Unmarshal(data)
	if err != nil {
		return Export{}, fmt.Errorf("decode %q: %w", id, err)
	}
	return Export{ID: id, DeviceID: dev, Template: tpl}, nil
}

// SaveTo serializes every enrollment to w in insertion order.
func (s *Store) SaveTo(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	// One entry at a time through a reused scratch: the stream is never
	// held whole.
	var rec enc.Writer
	rec.Buf = append(rec.Buf, storeMagic[:]...)
	rec.Uint16(storeVersion)
	rec.Uint32(uint32(len(s.order)))
	if _, err := bw.Write(rec.Buf); err != nil {
		return fmt.Errorf("gallery: write header: %w", err)
	}
	// A scratch template and codec buffer too: each entry's template is
	// rebuilt from its preparation and encoded with no allocation.
	var (
		tpl  minutiae.Template
		data []byte
	)
	for _, id := range s.order {
		e := s.entries[id]
		e.prep.TemplateInto(&tpl)
		var err error
		if data, err = minutiae.AppendMarshal(data[:0], &tpl); err != nil {
			return fmt.Errorf("gallery: encode %q: %w", id, err)
		}
		rec.Buf = rec.Buf[:0]
		if err := rec.Enrollment(e.ID, e.DeviceID, data); err != nil {
			return fmt.Errorf("gallery: encode %q: %w", id, err)
		}
		if _, err := bw.Write(rec.Buf); err != nil {
			return fmt.Errorf("gallery: write %q: %w", id, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("gallery: flush: %w", err)
	}
	return nil
}

// ReadEntries decodes a serialized gallery stream (the SaveTo format)
// into its entries without touching any store, so WAL recovery can
// merge a snapshot with replayed log records before building a store
// from the survivors (ReplaceAll) in one pass. It stops after the last
// entry the header counts and returns the bytes behind it as rest,
// unread: a container may carry more after the stream (a replica sync
// capture appends the primary's index segment), and a reader that
// wants the entries alone ignores rest — a reader written before a
// trailing section existed still decodes the entries of a stream that
// carries one. The entries hold no reference to data.
func ReadEntries(data []byte) (entries []Export, rest []byte, err error) {
	r := enc.Reader{Buf: data}
	if magic := r.Take(len(storeMagic)); r.Err() == nil && [4]byte(magic) != storeMagic {
		return nil, nil, ErrBadStoreFormat
	}
	if v := r.Uint16(); r.Err() == nil && v != storeVersion {
		return nil, nil, fmt.Errorf("gallery: unsupported store version %d", v)
	}
	// The stream carries no checksum, so the count is only as good as
	// the bytes behind it: Count refuses one they cannot hold.
	out := make([]Export, r.Count(enc.EnrollmentMinSize))
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("gallery: read header: %w", err)
	}
	for i := range out {
		var err error
		if out[i], err = DecodeExport(&r); err != nil {
			return nil, nil, fmt.Errorf("gallery: entry %d: %w", i, err)
		}
	}
	return out, r.Buf, nil
}

// ReplaceAll swaps the store's contents for the given entries in one
// bulk pass: matcher preparations are built across all CPUs and the
// retrieval index (when enabled) is rebuilt exactly once, instead of
// re-deriving both per record the way replaying a log through Enroll
// would. As in Enroll, the store keeps each template's preparation, a
// copy, and no reference to the entries. On error the store is left
// untouched.
func (s *Store) ReplaceAll(entries []Export) error {
	return s.ReplaceAllWithIndex(entries, nil)
}

// ReplaceAllWithIndex is ReplaceAll taking the retrieval index from
// segment (index.AppendSegment's encoding, as a primary ships it)
// instead of extracting every template's keys to build one: the index
// is decoded with the store's own index options, and must hold exactly
// the entries' IDs. It fails, leaving the store untouched, when the
// store has no index, or with index.ErrBadSegment for bytes the decoder
// rejects and index.ErrSegmentIDs for a segment of other templates;
// ReplaceAll then rebuilds. A segment encoded from the same entries
// votes bit for bit as the index ReplaceAll would build. A nil segment
// is ReplaceAll.
func (s *Store) ReplaceAllWithIndex(entries []Export, segment []byte) error {
	seen := make(map[string]bool, len(entries))
	order := make([]string, len(entries))
	for i, e := range entries {
		if e.Template == nil {
			return fmt.Errorf("gallery: replace %q: nil template", e.ID)
		}
		if seen[e.ID] {
			return fmt.Errorf("gallery: duplicate id %q in store", e.ID)
		}
		seen[e.ID] = true
		order[i] = e.ID
	}
	// The retrieval index must mirror the enrolled set exactly: its
	// replacement is decoded or bulk-built before the write lock, so
	// searches keep running on the old contents meanwhile.
	s.mu.RLock()
	old := s.idx
	s.mu.RUnlock()
	var idx *index.Index
	if segment != nil {
		if old == nil {
			return errors.New("gallery: replace with index: the store has no index")
		}
		var err error
		if idx, err = index.DecodeSegment(old.Options(), segment, order); err != nil {
			return fmt.Errorf("gallery: shipped index: %w", err)
		}
	}
	built := make([]*Entry, len(entries))
	// One parallel preparation pass over the whole load — the bulk
	// analogue of Enroll's derive.
	par.For(nil, len(built), func(_, i int) error {
		e := entries[i]
		built[i] = &Entry{ID: e.ID, DeviceID: e.DeviceID, prep: prepare(e.Template)}
		return nil
	})
	byID := make(map[string]*Entry, len(built))
	for _, e := range built {
		byID[e.ID] = e
	}
	if old != nil && idx == nil {
		var err error
		if idx, err = buildIndex(old.Options(), order, byID); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx != old {
		// Enabled or re-enabled meanwhile; its options may differ.
		var err error
		if idx, err = buildIndex(s.idx.Options(), order, byID); err != nil {
			return err
		}
	}
	s.idx = idx
	s.entries = byID
	s.order = order
	s.met.setEnrollments(len(s.entries))
	return nil
}

// AppendIndexSegment appends the retrieval index's segment encoding
// (index.AppendSegment) to dst, or returns dst as it is when the store
// has no index.
func (s *Store) AppendIndexSegment(dst []byte) []byte {
	s.mu.RLock()
	idx := s.idx
	s.mu.RUnlock()
	if idx == nil {
		return dst
	}
	return idx.AppendSegment(dst)
}
