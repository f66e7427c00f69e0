package gallery

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fpinterop/internal/index"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/population"
	"fpinterop/internal/rng"
	"fpinterop/internal/sensor"
)

// The ingest fixture is captured once per process: -count and -cpu
// repeat the tests, not the captures.
var (
	ingestOnce   sync.Once
	ingestItems  []Export             // D0 sample 0 of ingestSubjects subjects
	ingestProbes []*minutiae.Template // D1 sample 1 of the first ingestProbeCount
	ingestErr    error
)

const (
	// ingestSubjects × ~300 postings is dozens of merge thresholds
	// (index: every max(base/8, 4096) postings), in 256-item groups
	// with a ragged last one.
	ingestSubjects   = 640
	ingestProbeCount = 32
	ingestGroup      = 256
	// ingestReaderStride paces identifyWhile's readers.
	ingestReaderStride = 16
)

func ingestFixture(t *testing.T) ([]Export, []*minutiae.Template) {
	t.Helper()
	ingestOnce.Do(func() {
		cohort := population.NewCohort(rng.New(20171002), population.CohortOptions{Size: ingestSubjects})
		d0, _ := sensor.ProfileByID("D0")
		d1, _ := sensor.ProfileByID("D1")
		for i, subj := range cohort.Subjects {
			g, err := d0.CaptureSubject(subj, 0, sensor.CaptureOptions{})
			if err != nil {
				ingestErr = err
				return
			}
			ingestItems = append(ingestItems, Export{ID: fmt.Sprintf("subject-%04d", i), DeviceID: "D0", Template: g.Template})
			if i < ingestProbeCount {
				p, err := d1.CaptureSubject(subj, 1, sensor.CaptureOptions{})
				if err != nil {
					ingestErr = err
					return
				}
				ingestProbes = append(ingestProbes, p.Template)
			}
		}
	})
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
	return ingestItems, ingestProbes
}

// identifyWhile runs load with two goroutines identifying against s
// from its first enrollment to its last, and returns once they have
// stopped. A reader searches once per ingestReaderStride enrollments
// the load has added: searches then land all along the load without
// taking the CPUs from it (a search costs ~100 enrollments under -race).
func identifyWhile(t *testing.T, s *Store, probes []*minutiae.Template, load func() error) {
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
				if n < seen+ingestReaderStride {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				seen = n
				if _, _, err := s.IdentifyDetailedContext(context.Background(), probes[i%len(probes)], 5); err != nil {
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

func savedBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEnrollBatchEqualsSerial: a gallery loaded through EnrollBatch in
// wire-sized groups is the gallery loaded one Enroll at a time — same
// records in the same order, the enrolled templates bit for bit, same
// index occupancy, same shortlists bit for bit — whatever GOMAXPROCS,
// with searches running beside the load.
func TestEnrollBatchEqualsSerial(t *testing.T) {
	items, probes := ingestFixture(t)
	newStore := func() *Store {
		s := New(nil)
		// A short shortlist keeps the readers' searches cheap; the
		// comparison below asks the index for 64 itself.
		if err := s.EnableIndex(IndexOptions{Index: index.Options{Fanout: 8}}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := newStore()
	identifyWhile(t, serial, probes, func() error {
		for _, it := range items {
			if err := serial.Enroll(it.ID, it.DeviceID, it.Template); err != nil {
				return err
			}
		}
		return nil
	})
	wantBytes := savedBytes(t, serial)
	wantStats, _ := serial.IndexStats()
	if wantStats.Templates != len(items) {
		t.Fatalf("serial store indexed %d of %d templates", wantStats.Templates, len(items))
	}

	// 1 is the inline path and 3 the pipeline (a stride that does not
	// divide the group), whatever -cpu says.
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			batch := newStore()
			identifyWhile(t, batch, probes, func() error {
				for lo := 0; lo < len(items); lo += ingestGroup {
					if err := batch.EnrollBatch(items[lo:min(lo+ingestGroup, len(items))]); err != nil {
						return err
					}
				}
				return nil
			})
			if !bytes.Equal(savedBytes(t, batch), wantBytes) {
				t.Fatal("SaveTo streams differ between batch and serial enrollment")
			}
			for _, it := range items {
				got, _ := batch.Get(it.ID)
				want, _ := serial.Get(it.ID)
				if !sameTemplate(got.Template, want.Template) || !sameTemplate(got.Template, it.Template) {
					t.Fatalf("%q: batch, serial and enrolled templates differ", it.ID)
				}
			}
			if st, _ := batch.IndexStats(); st != wantStats {
				t.Fatalf("index stats %+v, want %+v", st, wantStats)
			}
			for i, p := range probes {
				got, want := batch.idx.Candidates(p, 64), serial.idx.Candidates(p, 64)
				if len(got) != len(want) {
					t.Fatalf("probe %d: shortlist of %d, want %d", i, len(got), len(want))
				}
				for j := range want {
					if got[j].ID != want[j].ID || math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
						t.Fatalf("probe %d: shortlist[%d] = %+v, want %+v", i, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// failingBatch returns a batch of n valid items whose item k fails in
// the named way, and the sentinel the failure must unwrap to (nil when
// it has none). The store must already hold enrolled.
func failingBatch(fx []Export, n, k int, kind string, enrolled Export) ([]Export, error) {
	items := make([]Export, n)
	for i := range items {
		items[i] = fx[i]
		items[i].ID = "item-" + strconv.Itoa(i)
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
		return items, ErrDuplicate
	case "duplicate of an enrolled ID":
		items[k].ID = enrolled.ID
		return items, ErrDuplicate
	}
	return items, nil
}

var failureKinds = []string{"nil template", "invalid template", "duplicate within the batch", "duplicate of an enrolled ID"}

// waitGoroutines fails the test unless the goroutine count returns to
// want: a worker that has signalled its WaitGroup may still be on its
// way out when the call that waited for it returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestEnrollBatchFailurePositions: wherever in a batch an item fails and
// however it fails, a plain store holds exactly the items before it, in
// order, the error is that item's, and no derive worker outlives the
// call.
func TestEnrollBatchFailurePositions(t *testing.T) {
	fx, _ := ingestFixture(t)
	const n = 7
	enrolled := Export{ID: "enrolled", DeviceID: "D0", Template: fx[n].Template}
	for _, procs := range []int{1, 3} { // inline, pipeline
		for _, indexed := range []bool{false, true} {
			for _, kind := range failureKinds {
				for _, k := range []int{0, n / 2, n - 1} {
					if k == 0 && kind == "duplicate within the batch" {
						continue // item 0 has no earlier item
					}
					t.Run(fmt.Sprintf("procs=%d/indexed=%v/%s/at=%d", procs, indexed, kind, k), func(t *testing.T) {
						setProcs(t, procs)
						s := New(nil)
						if indexed {
							if err := s.EnableIndex(IndexOptions{}); err != nil {
								t.Fatal(err)
							}
						}
						if err := s.Enroll(enrolled.ID, enrolled.DeviceID, enrolled.Template); err != nil {
							t.Fatal(err)
						}
						items, sentinel := failingBatch(fx, n, k, kind, enrolled)
						before := runtime.NumGoroutine()
						err := s.EnrollBatch(items)
						waitGoroutines(t, before)

						var be *BatchError
						if !errors.As(err, &be) || be.Applied != k {
							t.Fatalf("error %v (%T), want a *BatchError with Applied = %d", err, err, k)
						}
						if sentinel != nil && !errors.Is(err, sentinel) {
							t.Fatalf("error %v does not unwrap to %v", err, sentinel)
						}
						if !strings.Contains(err.Error(), strconv.Quote(items[k].ID)) {
							t.Fatalf("error %q does not name item %d (%q)", err, k, items[k].ID)
						}
						want := []string{enrolled.ID}
						for _, it := range items[:k] {
							want = append(want, it.ID)
						}
						got, _, rerr := ReadEntries(savedBytes(t, s))
						if rerr != nil {
							t.Fatal(rerr)
						}
						if len(got) != len(want) {
							t.Fatalf("store holds %d enrollments, want %d", len(got), len(want))
						}
						for i, e := range got {
							if e.ID != want[i] {
								t.Fatalf("enrollment %d is %q, want %q", i, e.ID, want[i])
							}
						}
						if st, ok := s.IndexStats(); ok && st.Templates != len(want) {
							t.Fatalf("index holds %d templates, want %d", st.Templates, len(want))
						}
					})
				}
			}
		}
	}
}

// TestOneItemBatchIsEnroll: a batch of one takes the inline path — no
// goroutine, no channel, not one allocation more than Enroll on a store
// in the same state.
func TestOneItemBatchIsEnroll(t *testing.T) {
	fx, _ := ingestFixture(t)
	setProcs(t, 4)
	allocs := func(enroll func(s *Store, it Export) error) float64 {
		s := New(nil)
		i := 0
		return testing.AllocsPerRun(200, func() {
			i++
			if err := enroll(s, Export{ID: "id-" + strconv.Itoa(i), DeviceID: "D0", Template: fx[0].Template}); err != nil {
				t.Fatal(err)
			}
		})
	}
	single := allocs(func(s *Store, it Export) error { return s.Enroll(it.ID, it.DeviceID, it.Template) })
	items := make([]Export, 1)
	batch := allocs(func(s *Store, it Export) error {
		items[0] = it
		return s.EnrollBatch(items)
	})
	if batch > single {
		t.Fatalf("one-item EnrollBatch allocates %v times, Enroll %v", batch, single)
	}
}
