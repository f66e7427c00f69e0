package wal

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/gallery"
	"fpinterop/internal/index"
	"fpinterop/internal/minutiae"
)

// The ingest fixture is captured once per process (-count and -cpu
// repeat the tests, not the captures) and passed through the codec, so
// the templates a reopened store decodes from its log are the templates
// the live store was handed.
var (
	ingestOnce  sync.Once
	ingestItems []gallery.Export
)

const (
	// 640 templates × ~300 postings is dozens of index merges; 256 is
	// the wire's group, with a ragged last one.
	ingestSubjects = 640
	ingestGroup    = 256
	ingestProbes   = 32
)

func ingestFixture(t *testing.T) []gallery.Export {
	t.Helper()
	ingestOnce.Do(func() {
		ingestItems = fixtures(t, ingestSubjects)
		for i := range ingestItems {
			data, err := minutiae.Marshal(ingestItems[i].Template)
			if err != nil {
				t.Fatal(err)
			}
			if ingestItems[i].Template, err = minutiae.Unmarshal(data); err != nil {
				t.Fatal(err)
			}
		}
	})
	if len(ingestItems) != ingestSubjects {
		t.Fatal("ingest fixture failed in an earlier test")
	}
	return ingestItems
}

func openIndexed(t *testing.T, dir string, parallelism int, opt Options) *Store {
	t.Helper()
	g := gallery.New(nil)
	g.SetParallelism(parallelism)
	// A short shortlist keeps searches cheap under -race.
	if err := g.EnableIndex(gallery.IndexOptions{Index: index.Options{Fanout: 8}}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// identifyWhile runs load with two goroutines identifying against s
// from its first enrollment to its last, one search per 16 enrollments
// added so the searches do not take the CPUs from the load.
func identifyWhile(t *testing.T, s *Store, probes []gallery.Export, load func() error) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i, seen := r, 0; ; {
				select {
				case <-stop:
					return
				default:
				}
				n := s.Len()
				if n < seen+16 {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				seen = n
				if _, _, err := s.IdentifyDetailedContext(context.Background(), probes[i%len(probes)].Template, 5); err != nil {
					t.Errorf("identify during load: %v", err)
					return
				}
				i++
			}
		}(r)
	}
	err := load()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// storeImage is everything two equal stores must agree on.
type storeImage struct {
	saved    []byte
	stats    index.Stats
	searches []string // one line per probe: stats, then ID and score bits per candidate
}

func imageOf(t *testing.T, s *Store, probes []gallery.Export) storeImage {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	img := storeImage{saved: buf.Bytes()}
	img.stats, _ = s.IndexStats()
	for _, p := range probes {
		cands, st, err := s.IdentifyDetailedContext(context.Background(), p.Template, 5)
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("%+v", st)
		for _, c := range cands {
			line += fmt.Sprintf(" %s:%016x", c.ID, math.Float64bits(c.Score))
		}
		img.searches = append(img.searches, line)
	}
	return img
}

func (img storeImage) mustEqual(t *testing.T, what string, want storeImage) {
	t.Helper()
	if !bytes.Equal(img.saved, want.saved) {
		t.Fatalf("%s: SaveTo streams differ", what)
	}
	if img.stats != want.stats {
		t.Fatalf("%s: index stats %+v, want %+v", what, img.stats, want.stats)
	}
	for i := range want.searches {
		if img.searches[i] != want.searches[i] {
			t.Fatalf("%s: probe %d answered\n%s\nwant\n%s", what, i, img.searches[i], want.searches[i])
		}
	}
}

// TestEnrollBatchEqualsSerial: a durable gallery loaded through
// EnrollBatch in wire-sized groups is the one loaded an Enroll at a
// time — records, order, index and answers, the log byte for byte — on
// either ingest path, with searches running beside the load, and it is
// what reopening the directory recovers.
func TestEnrollBatchEqualsSerial(t *testing.T) {
	items := ingestFixture(t)
	probes := items[:ingestProbes]

	serialDir := t.TempDir()
	serial := openIndexed(t, serialDir, 0, Options{})
	defer serial.Close()
	identifyWhile(t, serial, probes, func() error {
		for _, it := range items {
			if err := serial.Enroll(it.ID, it.DeviceID, it.Template); err != nil {
				return err
			}
		}
		return nil
	})
	want := imageOf(t, serial, probes)
	if want.stats.Templates != len(items) {
		t.Fatalf("serial store indexed %d of %d templates", want.stats.Templates, len(items))
	}
	wantLog, err := os.ReadFile(filepath.Join(serialDir, logName))
	if err != nil {
		t.Fatal(err)
	}

	// 1 is the inline path and 3 the pipeline at any -cpu.
	for _, parallelism := range []int{1, 3} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			dir := t.TempDir()
			batch := openIndexed(t, dir, parallelism, Options{})
			identifyWhile(t, batch, probes, func() error {
				for lo := 0; lo < len(items); lo += ingestGroup {
					if err := batch.EnrollBatch(items[lo:min(lo+ingestGroup, len(items))]); err != nil {
						return err
					}
				}
				return nil
			})
			imageOf(t, batch, probes).mustEqual(t, "batch-loaded store", want)
			if got := batch.LSN(); got != uint64(len(items)) {
				t.Fatalf("LSN = %d, want %d", got, len(items))
			}
			if err := batch.Close(); err != nil {
				t.Fatal(err)
			}
			if log, err := os.ReadFile(filepath.Join(dir, logName)); err != nil || !bytes.Equal(log, wantLog) {
				t.Fatalf("batch-written log differs from the serial one (err %v)", err)
			}
			reopened := openIndexed(t, dir, parallelism, Options{})
			defer reopened.Close()
			imageOf(t, reopened, probes).mustEqual(t, "reopened store", want)
		})
	}
}

// failingBatch returns a batch of n valid items whose item k fails in
// the named way; the store must already hold enrolled.
func failingBatch(fx []gallery.Export, n, k int, kind string, enrolled gallery.Export) []gallery.Export {
	items := make([]gallery.Export, n)
	for i := range items {
		items[i] = fx[i]
		items[i].ID = fmt.Sprintf("item-%d", i)
	}
	switch kind {
	case "nil template":
		items[k].Template = nil
	case "invalid template":
		bad := items[k].Template.Clone()
		bad.DPI = 0
		items[k].Template = bad
	case "duplicate within the batch":
		items[k].ID = items[k-1].ID
	case "duplicate of an enrolled ID":
		items[k].ID = enrolled.ID
	}
	return items
}

// TestEnrollBatchFailurePositions: wherever in a batch an item fails and
// however it fails, a durable store is left as it was — contents, LSN,
// log size, and what the directory recovers to — and no derive worker
// outlives the call; nor does that item enroll through Enroll.
func TestEnrollBatchFailurePositions(t *testing.T) {
	fx := ingestFixture(t)
	const n = 7
	enrolled := gallery.Export{ID: "enrolled", DeviceID: "D0", Template: fx[n].Template}
	kinds := []string{"nil template", "invalid template", "duplicate within the batch", "duplicate of an enrolled ID"}
	for _, parallelism := range []int{1, 3} {
		for _, kind := range kinds {
			for _, k := range []int{0, n / 2, n - 1} {
				if k == 0 && kind == "duplicate within the batch" {
					continue // item 0 has no earlier item
				}
				t.Run(fmt.Sprintf("parallelism=%d/%s/at=%d", parallelism, kind, k), func(t *testing.T) {
					dir := t.TempDir()
					s := openIndexed(t, dir, parallelism, Options{})
					if err := s.Enroll(enrolled.ID, enrolled.DeviceID, enrolled.Template); err != nil {
						t.Fatal(err)
					}
					lsn := s.LSN()
					size, err := s.LogSize()
					if err != nil {
						t.Fatal(err)
					}
					unchanged := func(after string) {
						t.Helper()
						wantIDs(t, s, enrolled.ID)
						if got := s.LSN(); got != lsn {
							t.Fatalf("after %s: LSN %d, want %d", after, got, lsn)
						}
						if got, err := s.LogSize(); err != nil || got != size {
							t.Fatalf("after %s: log size %d (err %v), want %d", after, got, err, size)
						}
					}

					items := failingBatch(fx, n, k, kind, enrolled)
					before := runtime.NumGoroutine()
					err = s.EnrollBatch(items)
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > before { // a worker past its Done may still be exiting
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), before)
						}
						runtime.Gosched()
					}
					if err == nil {
						t.Fatal("failing batch: no error")
					}
					unchanged("the failing batch")
					if kind != "duplicate within the batch" { // alone, that item is no duplicate
						if err := s.Enroll(items[k].ID, "D0", items[k].Template); err == nil {
							t.Fatal("the failing item enrolled on its own")
						}
						unchanged("the failing item alone")
					}

					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					reopened := openIndexed(t, dir, parallelism, Options{})
					defer reopened.Close()
					wantIDs(t, reopened, enrolled.ID)
					if got := reopened.LSN(); got != lsn {
						t.Fatalf("reopened at LSN %d, want %d", got, lsn)
					}
				})
			}
		}
	}
}
