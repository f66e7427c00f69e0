package gallery

import (
	"context"
	"math"
	"sync"
	"testing"

	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
)

const (
	scanEnrolled = 300 // stay enrolled for the whole test
	scanChurn    = 60  // enrolled and removed beside the searches
	scanProbes   = 8
)

// The scan fixture is built once per process (-count and -cpu repeat
// the test, not the captures or the pairwise scores): the ingest
// fixture's first templates, every other one through the codec so the
// gallery holds both raw captures and what a server decodes off the
// wire, and for every probe the score of every template from a match
// session made for that one comparison — no preparation, no bound
// probe, no worker pool.
var (
	scanOnce     sync.Once
	scanItems    []Export
	scanTemplate map[string]*minutiae.Template
	scanProbeSet []*minutiae.Template
	scanWant     []map[string]uint64 // [probe][id] → Float64bits(score)
	scanErr      error
)

func scanFixture(t *testing.T) {
	t.Helper()
	items, probes := ingestFixture(t)
	scanOnce.Do(func() {
		scanTemplate = make(map[string]*minutiae.Template)
		for i, it := range items[:scanEnrolled+scanChurn] {
			if i%2 == 1 {
				data, err := minutiae.Marshal(it.Template)
				if err != nil {
					scanErr = err
					return
				}
				if it.Template, err = minutiae.Unmarshal(data); err != nil {
					scanErr = err
					return
				}
			}
			scanItems = append(scanItems, it)
			scanTemplate[it.ID] = it.Template
		}
		// D1 second samples, and two enrolled templates as their own probes.
		scanProbeSet = append(scanProbeSet, probes[:scanProbes-2]...)
		scanProbeSet = append(scanProbeSet, scanItems[3].Template, scanItems[scanEnrolled+1].Template)
		for _, probe := range scanProbeSet {
			want := make(map[string]uint64, len(scanItems))
			for _, it := range scanItems {
				res, err := match.NewSession(nil).Match(it.Template, probe)
				if err != nil {
					scanErr = err
					return
				}
				want[it.ID] = math.Float64bits(res.Score)
			}
			scanWant = append(scanWant, want)
		}
	})
	if scanErr != nil {
		t.Fatal(scanErr)
	}
}

// TestScanEqualsPairwise: whatever a search returns — exhaustive or
// through the index, at GOMAXPROCS 1 or 3, with enrollments coming
// and going beside it — every candidate's score is bit for bit the
// score of that one pair matched alone. The scan's shortcuts (enroll-time
// preparations, one probe bound per worker for the whole scan, entries
// claimed by an atomic counter, pooled sessions reused across searches)
// change when work happens, never a result.
func TestScanEqualsPairwise(t *testing.T) {
	scanFixture(t)
	ctx := context.Background()
	for _, indexed := range []bool{false, true} {
		for _, procs := range []int{1, 3} {
			setProcs(t, procs)
			s := New(nil)
			if indexed {
				if err := s.EnableIndex(IndexOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.EnrollBatch(scanItems[:scanEnrolled]); err != nil {
				t.Fatal(err)
			}

			// The write stream: enroll the churn set, remove it, again,
			// until the searches are done.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				churn := scanItems[scanEnrolled:]
				for {
					for _, it := range churn {
						select {
						case <-stop:
							return
						default:
						}
						if err := s.Enroll(it.ID, it.DeviceID, it.Template); err != nil {
							t.Errorf("enroll %s beside the scan: %v", it.ID, err)
							return
						}
					}
					for _, it := range churn {
						if err := s.Remove(it.ID); err != nil {
							t.Errorf("remove %s beside the scan: %v", it.ID, err)
							return
						}
					}
				}
			}()

			// Two searchers at once, so pooled sessions change hands.
			var searchers sync.WaitGroup
			for r := 0; r < 2; r++ {
				searchers.Add(1)
				go func(r int) {
					defer searchers.Done()
					for pi := r; pi < len(scanProbeSet); pi += 2 {
						for _, k := range []int{0, 10} {
							cands, stats, err := s.IdentifyDetailedContext(ctx, scanProbeSet[pi], k)
							if err != nil {
								t.Errorf("identify: %v", err)
								return
							}
							if k == 0 && len(cands) < scanEnrolled {
								t.Errorf("indexed=%v procs %d probe %d: full ranking of %d, %d always enrolled",
									indexed, procs, pi, len(cands), scanEnrolled)
							}
							for _, c := range cands {
								want, ok := scanWant[pi][c.ID]
								if !ok {
									t.Errorf("candidate %q was never enrolled", c.ID)
								} else if got := math.Float64bits(c.Score); got != want {
									t.Errorf("indexed=%v (served indexed=%v) procs %d probe %d k %d: %s scored %016x in the scan, %016x alone",
										indexed, stats.Indexed, procs, pi, k, c.ID, got, want)
								}
							}
						}
					}
				}(r)
			}
			searchers.Wait()
			close(stop)
			wg.Wait()
		}
	}
}
