package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/obs"
)

// Options configures a durable store. Every acknowledged mutation is
// fsynced first, so it survives kill -9 and power loss.
type Options struct {
	// CompactEvery folds the log into a snapshot after this many
	// logged mutations. 0 disables automatic compaction (Compact can
	// still be called explicitly).
	CompactEvery int
	// Metrics, when non-nil, registers this store's WAL families
	// (append/fsync/compaction latency, log size, recovery gauges)
	// there, labeled by Shard.
	Metrics *obs.Registry
	// Shard is the metric label identifying this store; empty means
	// "wal".
	Shard string
}

// RecoveryStats describes what Open reconstructed.
type RecoveryStats struct {
	// SnapshotEntries is the number of enrollments in the snapshot.
	SnapshotEntries int
	// Replayed is the number of log records applied on top of the
	// snapshot (records the snapshot already covers are skipped).
	Replayed int
	// TruncatedBytes counts trailing log bytes discarded because they
	// failed length or checksum validation; TornTail is set when any
	// were (the signature of a crash mid-append).
	TruncatedBytes int64
	TornTail       bool
}

// ErrDirectLoad is returned by the ReplaceAll a durable store inherits
// from the gallery: swapping the in-memory state underneath the log
// would silently diverge memory from disk. Recovery happens in Open,
// nowhere else.
var ErrDirectLoad = errors.New("wal: direct load would bypass the write-ahead log")

const (
	logName  = "wal.log"
	snapName = "snapshot.fpws"
)

// Store is a gallery made durable: every mutation is applied to the
// in-memory gallery and appended to the write-ahead log before the
// caller is acknowledged, and Open rebuilds the gallery from the last
// snapshot plus the log. Reads (Verify, Identify, Has, ...) are the
// embedded gallery's own and stay lock-free with respect to the WAL.
type Store struct {
	*gallery.Store

	dir string
	opt Options

	// mu serialises mutations so log order matches apply order —
	// without it two racing enrollments could append in the opposite
	// order they were applied, and replay would reconstruct a state
	// nobody ever observed.
	mu           sync.Mutex
	log          *Log
	lsn          uint64
	sinceCompact int
	recovery     RecoveryStats
	compactErr   error
	closed       bool

	// compactLSN is the LSN the newest compaction snapshot covers: the
	// log on disk only holds records above it. A replica asking for a
	// tail below this line gets Truncated and must restart from a
	// snapshot — the records it wants no longer exist.
	compactLSN uint64

	// syncSnapLSN/syncSnapData cache the last snapshot capture served
	// to a replica, so a multi-chunk transfer reads one consistent
	// byte stream without re-serializing the gallery per chunk. The
	// data is dropped once its last chunk is served (SyncSnapshot);
	// syncSnapExact is set while no mutation has been tried since the
	// capture, so the store still encodes to its bytes. A rolled-back
	// one restores the state but not its bytes (the gallery's order,
	// the index's key table).
	syncSnapLSN   uint64
	syncSnapData  []byte
	syncSnapExact bool

	// met is non-nil when Options.Metrics was set; record calls are
	// nil-safe.
	met *walMetrics
}

// Open makes store durable under dir, first rebuilding its contents
// from the snapshot and log found there (an empty dir yields an empty
// store). The store must not be mutated through any other path while
// the returned Store owns it.
func Open(dir string, store *gallery.Store, opt Options) (*Store, error) {
	if opt.CompactEvery < 0 {
		return nil, fmt.Errorf("wal: negative CompactEvery %d", opt.CompactEvery)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir %s: %w", dir, err)
	}
	snapLSN, entries, err := readSnapshot(filepath.Join(dir, snapName))
	if err != nil {
		return nil, err
	}
	snapCount := len(entries)
	// Replay onto the snapshot state. Replay is idempotent: records at
	// or below the snapshot LSN are skipped, an enrollment that
	// already exists overwrites in place, and a removal of a missing
	// id is a no-op — so a crash between writing a snapshot and
	// resetting the log, which leaves both covering the same records,
	// still reconstructs exactly one copy of each enrollment.
	byID := make(map[string]int, len(entries))
	for i, e := range entries {
		byID[e.ID] = i
	}
	applied := 0
	apply := func(rec Record) error {
		if rec.LSN <= snapLSN {
			return nil
		}
		applied++
		switch rec.Op {
		case OpEnroll:
			tpl, err := minutiae.Unmarshal(rec.Template)
			if err != nil {
				return fmt.Errorf("wal: replay lsn %d (%q): %w", rec.LSN, rec.ID, err)
			}
			e := gallery.Export{ID: rec.ID, DeviceID: rec.DeviceID, Template: tpl}
			if i, ok := byID[rec.ID]; ok {
				entries[i] = e
			} else {
				byID[rec.ID] = len(entries)
				entries = append(entries, e)
			}
		case OpRemove:
			// Tombstone in place (a nil template) and compact once after
			// replay: splicing here would renumber byID for every later
			// entry, once per replayed removal.
			if i, ok := byID[rec.ID]; ok {
				entries[i].Template = nil
				delete(byID, rec.ID)
			}
		}
		return nil
	}
	log, info, err := OpenLog(filepath.Join(dir, logName), apply)
	if err != nil {
		return nil, err
	}
	entries = slices.DeleteFunc(entries, func(e gallery.Export) bool { return e.Template == nil })
	if err := store.ReplaceAll(entries); err != nil {
		log.Close()
		return nil, err
	}
	lsn := snapLSN
	if info.LastLSN > lsn {
		lsn = info.LastLSN
	}
	s := &Store{
		Store:      store,
		dir:        dir,
		opt:        opt,
		log:        log,
		lsn:        lsn,
		compactLSN: snapLSN,
		recovery: RecoveryStats{
			SnapshotEntries: snapCount,
			Replayed:        applied,
			TruncatedBytes:  info.TruncatedBytes,
			TornTail:        info.TornTail,
		},
	}
	s.met = newWALMetrics(opt.Metrics, opt.Shard, s.recovery, log.size)
	if s.met != nil {
		log.fsyncLat = s.met.fsyncLat
	}
	return s, nil
}

// Recovery reports what Open reconstructed.
func (s *Store) Recovery() RecoveryStats {
	return s.recovery
}

// LSN returns the sequence number of the last logged mutation.
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lsn
}

// Enroll is a one-item EnrollBatch. It stays for two reasons: the
// benchmark module times single durable enrollments through it
// (benchmark/ladder.go), and without it the embedded gallery's Enroll
// would be promoted here — a write the log never sees.
func (s *Store) Enroll(id, deviceID string, tpl *minutiae.Template) error {
	return s.EnrollBatch([]gallery.Export{{ID: id, DeviceID: deviceID, Template: tpl}})
}

// EnrollBatch quantises every item to the log's form first, before
// s.mu is taken: each template is marshalled (an invalid one fails the
// batch with nothing applied), and the gallery enrolls the decoding of
// those bytes, so what the store serves before a restart is what
// recovery, snapshot restore and every replica rebuild from the log.
// The batch then goes through one call into the gallery's batch path
// (derivation on every core, inserts in input order) and into the log
// with a single flush — the bulk path a wire batch and preload use.
// s.mu is held across both, as it is across the fsync; searches contend
// only for the gallery's per-insert write lock. On any failure exactly
// the applied enrollments are rolled back and the log gains nothing.
func (s *Store) EnrollBatch(items []gallery.Export) error {
	recs := make([]Record, len(items))
	logged := make([]gallery.Export, len(items))
	for i, it := range items {
		data, err := minutiae.Marshal(it.Template)
		if err != nil {
			return fmt.Errorf("wal: enroll %q: %w", it.ID, err)
		}
		tpl, err := minutiae.Unmarshal(data)
		if err != nil {
			return fmt.Errorf("wal: enroll %q: %w", it.ID, err)
		}
		recs[i] = Record{Op: OpEnroll, ID: it.ID, DeviceID: it.DeviceID, Template: data}
		logged[i] = gallery.Export{ID: it.ID, DeviceID: it.DeviceID, Template: tpl}
	}
	return s.commit(recs, func() (func(), error) {
		rollback := func(n int) {
			for _, it := range logged[:n] {
				s.Store.Remove(it.ID)
			}
		}
		if err := s.Store.EnrollBatch(logged); err != nil {
			var be *gallery.BatchError
			if errors.As(err, &be) {
				rollback(be.Applied)
				err = be.Err
			}
			return nil, err
		}
		return func() { rollback(len(logged)) }, nil
	})
}

// Remove applies the removal and appends it to the log, with the same
// durability and rollback guarantees as EnrollBatch.
func (s *Store) Remove(id string) error {
	return s.commit([]Record{{Op: OpRemove, ID: id}}, func() (func(), error) {
		prev, _ := s.Store.Get(id)
		if err := s.Store.Remove(id); err != nil {
			return nil, err
		}
		return func() { s.Store.Enroll(prev.ID, prev.DeviceID, prev.Template) }, nil
	})
}

// commit is the one mutation sequence: under the lock, apply changes
// the in-memory gallery and returns how to undo that; recs, numbered
// from the next LSN, are then appended under the sync policy. A failed
// append undoes the change, so memory and log never diverge; a
// successful one advances the LSN and the compaction counter.
func (s *Store) commit(recs []Record, apply func() (undo func(), err error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wal: store closed")
	}
	s.syncSnapExact = false
	undo, err := apply()
	if err != nil {
		return err
	}
	for i := range recs {
		recs[i].LSN = s.lsn + uint64(i) + 1
	}
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	if err := s.log.Append(recs...); err != nil {
		undo()
		return err
	}
	s.observeAppend(t0)
	s.lsn += uint64(len(recs))
	s.noteMutations(len(recs))
	return nil
}

// observeAppend records a successful append's latency and the log's new
// size; t0 is the zero time when the store is unmetered.
//
//fpvet:hotpath
func (s *Store) observeAppend(t0 time.Time) {
	if s.met == nil {
		return
	}
	s.met.appendLat.ObserveSince(t0)
	s.met.logBytes.Set(s.log.size)
}

// noteMutations advances the compaction counter and compacts when the
// threshold is crossed. An automatic compaction failure is deliberately
// not surfaced to the mutation that tripped it — that mutation IS
// durable in the log; failing it would invite a retry and a duplicate.
// The error resurfaces from the next explicit Compact or Close.
func (s *Store) noteMutations(n int) {
	s.sinceCompact += n
	if s.opt.CompactEvery > 0 && s.sinceCompact >= s.opt.CompactEvery {
		if err := s.compactLocked(); err != nil {
			s.compactErr = err
		}
	}
}

// Compact folds the log into a snapshot and resets the log. Crash-safe
// in both directions: the snapshot is written atomically next to the
// old one, and if the crash lands between snapshot and reset, replay
// skips the records the snapshot already covers.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("wal: compact: store closed")
	}
	if err := s.compactLocked(); err != nil {
		s.compactErr = err
		return err
	}
	err := s.compactErr
	s.compactErr = nil
	return err
}

func (s *Store) compactLocked() error {
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	if err := writeSnapshot(filepath.Join(s.dir, snapName), s.lsn, s.Store.SaveTo); err != nil {
		return err
	}
	if err := s.log.Reset(); err != nil {
		return err
	}
	s.compactLSN = s.lsn
	s.sinceCompact = 0
	if s.met != nil {
		s.met.compacts.Inc()
		s.met.compactLat.ObserveSince(t0)
		s.met.logBytes.Set(s.log.size)
	}
	return nil
}

// LogSize returns the log's current size in bytes.
func (s *Store) LogSize() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Size()
}

// Close fsyncs and closes the log. It also surfaces the last automatic
// compaction failure, if any — the data behind it is still safe in the
// log. The store must not be mutated after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.log.Close()
	if err == nil {
		err = s.compactErr
	}
	return err
}

// ReplaceAll always fails: see ErrDirectLoad.
func (s *Store) ReplaceAll([]gallery.Export) error { return ErrDirectLoad }
