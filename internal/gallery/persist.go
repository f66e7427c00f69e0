package gallery

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"fpinterop/internal/enc"
	"fpinterop/internal/index"
	"fpinterop/internal/minutiae"
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
	for _, id := range s.order {
		e := s.entries[id]
		rec.Buf = rec.Buf[:0]
		if err := (Export{ID: e.ID, DeviceID: e.DeviceID, Template: e.Template}).AppendTo(&rec); err != nil {
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
// from the survivors (ReplaceAll) in one pass. The entries hold no
// reference to data.
func ReadEntries(data []byte) ([]Export, error) {
	r := enc.Reader{Buf: data}
	if magic := r.Take(len(storeMagic)); r.Err() == nil && [4]byte(magic) != storeMagic {
		return nil, ErrBadStoreFormat
	}
	if v := r.Uint16(); r.Err() == nil && v != storeVersion {
		return nil, fmt.Errorf("gallery: unsupported store version %d", v)
	}
	// The stream carries no checksum, so the count is only as good as
	// the bytes behind it: Count refuses one they cannot hold.
	out := make([]Export, r.Count(enc.EnrollmentMinSize))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("gallery: read header: %w", err)
	}
	for i := range out {
		var err error
		if out[i], err = DecodeExport(&r); err != nil {
			return nil, fmt.Errorf("gallery: entry %d: %w", i, err)
		}
	}
	return out, nil
}

// ReplaceAll swaps the store's contents for the given entries in one
// bulk pass: matcher preparations are rebuilt across all CPUs and the
// retrieval index (when enabled) is rebuilt exactly once, instead of
// re-deriving both per record the way replaying a log through Enroll
// would. The store takes ownership of the templates — they come from a
// decode or a replica sync stream, so the defensive clone Enroll performs
// is skipped. On error the store is left untouched.
func (s *Store) ReplaceAll(entries []Export) error {
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.Template == nil {
			return fmt.Errorf("gallery: replace %q: nil template", e.ID)
		}
		if seen[e.ID] {
			return fmt.Errorf("gallery: duplicate id %q in store", e.ID)
		}
		seen[e.ID] = true
	}
	built := make([]*Entry, len(entries))
	for i, e := range entries {
		built[i] = &Entry{ID: e.ID, DeviceID: e.DeviceID, Template: e.Template}
	}
	if s.hough != nil && len(built) > 0 {
		// One parallel preparation pass over the whole load — the bulk
		// analogue of the per-enrollment Prepare cache.
		workers := runtime.GOMAXPROCS(0)
		if workers > len(built) {
			workers = len(built)
		}
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			next int
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(built) {
						return
					}
					built[i].prep = s.hough.Prepare(built[i].Template)
				}
			}()
		}
		wg.Wait()
	}
	byID := make(map[string]*Entry, len(built))
	order := make([]string, len(built))
	for i, e := range built {
		byID[e.ID] = e
		order[i] = e.ID
	}
	// The retrieval index must mirror the enrolled set exactly: its
	// replacement is bulk-built before the write lock, so searches
	// keep running on the old contents meanwhile.
	s.mu.RLock()
	old := s.idx
	s.mu.RUnlock()
	var idx *index.Index
	if old != nil {
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
