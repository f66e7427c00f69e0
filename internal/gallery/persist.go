package gallery

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"fpinterop/internal/index"
	"fpinterop/internal/minutiae"
)

// Template-set encoding — the one serialized form of a gallery, which
// the WAL snapshot (FPWS) embeds and replica bootstrap ships:
//
//	0   4  magic "FPGD"
//	4   2  version (1)
//	6   4  entry count
//	then per entry:
//	    2  id length, id bytes
//	    2  device-id length, device-id bytes
//	    4  template length, template bytes (minutiae codec)
var (
	storeMagic = [4]byte{'F', 'P', 'G', 'D'}

	// ErrBadStoreFormat reports a stream that is not a serialized gallery.
	ErrBadStoreFormat = errors.New("gallery: bad store format")
)

const storeVersion = 1

// SaveTo serializes every enrollment to w in insertion order.
func (s *Store) SaveTo(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(storeMagic[:]); err != nil {
		return fmt.Errorf("gallery: write magic: %w", err)
	}
	var u16 [2]byte
	var u32 [4]byte
	binary.BigEndian.PutUint16(u16[:], storeVersion)
	if _, err := bw.Write(u16[:]); err != nil {
		return fmt.Errorf("gallery: write version: %w", err)
	}
	binary.BigEndian.PutUint32(u32[:], uint32(len(s.order)))
	if _, err := bw.Write(u32[:]); err != nil {
		return fmt.Errorf("gallery: write count: %w", err)
	}
	writeStr := func(v string) error {
		if len(v) > 1<<16-1 {
			return fmt.Errorf("gallery: string too long (%d bytes)", len(v))
		}
		binary.BigEndian.PutUint16(u16[:], uint16(len(v)))
		if _, err := bw.Write(u16[:]); err != nil {
			return err
		}
		_, err := bw.WriteString(v)
		return err
	}
	for _, id := range s.order {
		e := s.entries[id]
		if err := writeStr(e.ID); err != nil {
			return fmt.Errorf("gallery: write id: %w", err)
		}
		if err := writeStr(e.DeviceID); err != nil {
			return fmt.Errorf("gallery: write device: %w", err)
		}
		data, err := minutiae.Marshal(e.Template)
		if err != nil {
			return fmt.Errorf("gallery: marshal %q: %w", e.ID, err)
		}
		binary.BigEndian.PutUint32(u32[:], uint32(len(data)))
		if _, err := bw.Write(u32[:]); err != nil {
			return fmt.Errorf("gallery: write template length: %w", err)
		}
		if _, err := bw.Write(data); err != nil {
			return fmt.Errorf("gallery: write template: %w", err)
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
// from the survivors (ReplaceAll) in one pass.
func ReadEntries(r io.Reader) ([]Export, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("gallery: read magic: %w", err)
	}
	if magic != storeMagic {
		return nil, ErrBadStoreFormat
	}
	var u16 [2]byte
	var u32 [4]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, fmt.Errorf("gallery: read version: %w", err)
	}
	if v := binary.BigEndian.Uint16(u16[:]); v != storeVersion {
		return nil, fmt.Errorf("gallery: unsupported store version %d", v)
	}
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, fmt.Errorf("gallery: read count: %w", err)
	}
	count := binary.BigEndian.Uint32(u32[:])
	readStr := func() (string, error) {
		if _, err := io.ReadFull(br, u16[:]); err != nil {
			return "", err
		}
		buf := make([]byte, binary.BigEndian.Uint16(u16[:]))
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	out := make([]Export, 0, count)
	for i := uint32(0); i < count; i++ {
		id, err := readStr()
		if err != nil {
			return nil, fmt.Errorf("gallery: read entry %d id: %w", i, err)
		}
		dev, err := readStr()
		if err != nil {
			return nil, fmt.Errorf("gallery: read entry %d device: %w", i, err)
		}
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, fmt.Errorf("gallery: read entry %d length: %w", i, err)
		}
		n := binary.BigEndian.Uint32(u32[:])
		if n > 1<<20 {
			return nil, fmt.Errorf("gallery: entry %d template of %d bytes exceeds cap", i, n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, fmt.Errorf("gallery: read entry %d template: %w", i, err)
		}
		tpl, err := minutiae.Unmarshal(data)
		if err != nil {
			return nil, fmt.Errorf("gallery: decode entry %d (%q): %w", i, id, err)
		}
		out = append(out, Export{ID: id, DeviceID: dev, Template: tpl})
	}
	return out, nil
}

// ReplaceAll swaps the store's contents for the given entries in one
// bulk pass: matcher preparations are rebuilt across all CPUs and the
// retrieval index (when enabled) is rebuilt exactly once, instead of
// re-deriving both per record the way replaying a log through Enroll
// would. The store takes ownership of the templates — they come from a
// decode or a migration stream, so the defensive clone Enroll performs
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
	switch {
	case s.idx == nil:
		idx = nil
	case s.idx != old:
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
