package replica

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/match"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/shard"
)

var bg = context.Background()

// fakeBackend is a scriptable shard.Backend that records which calls
// landed on it.
type fakeBackend struct {
	name       string
	failing    atomic.Bool
	enrolls    atomic.Int64
	removes    atomic.Int64
	identifies atomic.Int64
	verifies   atomic.Int64
	lens       atomic.Int64
}

var errDown = errors.New("fake: member down")

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Enroll(ctx context.Context, id, deviceID string, tpl *minutiae.Template) error {
	f.enrolls.Add(1)
	return nil
}

func (f *fakeBackend) EnrollBatch(ctx context.Context, items []shard.Enrollment) error {
	f.enrolls.Add(int64(len(items)))
	return nil
}

func (f *fakeBackend) Remove(ctx context.Context, id string) error {
	f.removes.Add(1)
	return nil
}

func (f *fakeBackend) Verify(ctx context.Context, id string, probe *minutiae.Template) (match.Result, error) {
	f.verifies.Add(1)
	if f.failing.Load() {
		return match.Result{}, errDown
	}
	return match.Result{}, nil
}

func (f *fakeBackend) IdentifyDetailed(ctx context.Context, probe *minutiae.Template, k int) ([]gallery.Candidate, gallery.IdentifyStats, error) {
	f.identifies.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, gallery.IdentifyStats{}, err
	}
	if f.failing.Load() {
		return nil, gallery.IdentifyStats{}, errDown
	}
	return []gallery.Candidate{{ID: f.name}}, gallery.IdentifyStats{}, nil
}

func (f *fakeBackend) Len(ctx context.Context) (int, error) {
	f.lens.Add(1)
	if f.failing.Load() {
		return 0, errDown
	}
	return 7, nil
}

func fakeSet(t *testing.T, n int) (*Set, []*fakeBackend) {
	t.Helper()
	members := make([]*fakeBackend, n)
	for i := range members {
		members[i] = &fakeBackend{name: string(rune('a' + i))}
	}
	backends := make([]shard.Backend, 0, n-1)
	for _, m := range members[1:] {
		backends = append(backends, m)
	}
	return NewSet("", members[0], backends, SetOptions{}), members
}

func TestSetWritesGoToPrimaryOnly(t *testing.T) {
	s, members := fakeSet(t, 3)
	if err := s.Enroll(bg, "s1", "D0", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.EnrollBatch(bg, make([]shard.Enrollment, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(bg, "s1"); err != nil {
		t.Fatal(err)
	}
	if got := members[0].enrolls.Load(); got != 5 {
		t.Fatalf("primary saw %d enrolls, want 5", got)
	}
	for _, m := range members[1:] {
		if m.enrolls.Load() != 0 || m.removes.Load() != 0 {
			t.Fatalf("replica %s saw writes", m.name)
		}
	}
	if s.Name() != "a" {
		t.Fatalf("set name %q, want primary's name", s.Name())
	}
}

func TestSetReadsBalanceAcrossMembers(t *testing.T) {
	s, members := fakeSet(t, 3)
	for i := 0; i < 30; i++ {
		if _, _, err := s.IdentifyDetailed(bg, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range members {
		if n := m.identifies.Load(); n != 10 {
			t.Fatalf("member %s served %d of 30 reads; want an even 10", m.name, n)
		}
	}
}

func TestSetFailsOverAndDegrades(t *testing.T) {
	s, members := fakeSet(t, 3)
	members[1].failing.Store(true)
	// Every read is answered even though a member is down.
	for i := 0; i < 12; i++ {
		if _, _, err := s.IdentifyDetailed(bg, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !members[1].degraded(s) {
		t.Fatal("failing member not degraded after threshold")
	}
	before := members[1].identifies.Load()
	for i := 0; i < 12; i++ {
		if _, _, err := s.IdentifyDetailed(bg, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := members[1].identifies.Load(); got != before {
		t.Fatalf("degraded member still receiving reads (%d new)", got-before)
	}
	// Recovery: a Len health probe touches every member and readmits.
	members[1].failing.Store(false)
	if _, err := s.Len(bg); err != nil {
		t.Fatal(err)
	}
	if members[1].degraded(s) {
		t.Fatal("recovered member not readmitted by health probe")
	}
	before = members[1].identifies.Load()
	for i := 0; i < 9; i++ {
		if _, _, err := s.IdentifyDetailed(bg, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if members[1].identifies.Load() == before {
		t.Fatal("readmitted member got no reads")
	}
}

// degraded reports the set's view of this fake.
func (f *fakeBackend) degraded(s *Set) bool {
	for _, m := range s.members {
		if m.backend == f {
			return m.health.Degraded()
		}
	}
	return false
}

func TestSetAvoidSteersAndReportsPick(t *testing.T) {
	s, members := fakeSet(t, 3)
	for i := 0; i < 20; i++ {
		picked := make(chan int, 1)
		if _, _, err := s.IdentifyDetailedAvoiding(bg, nil, 1, 0, picked); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-picked:
			if got == 0 {
				t.Fatal("avoided member 0 was picked anyway")
			}
		default:
			t.Fatal("pick not reported")
		}
	}
	if members[0].identifies.Load() != 0 {
		t.Fatal("avoided member served a read with healthy alternatives present")
	}
}

func TestSetAvoidYieldsWhenItIsTheOnlyMember(t *testing.T) {
	s, members := fakeSet(t, 1)
	if _, _, err := s.IdentifyDetailedAvoiding(bg, nil, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if members[0].identifies.Load() != 1 {
		t.Fatal("single-member set refused a read because of avoid")
	}
}

func TestSetAllDegradedStillAnswers(t *testing.T) {
	s, members := fakeSet(t, 2)
	for _, m := range members {
		m.failing.Store(true)
	}
	for i := 0; i < 8; i++ {
		s.IdentifyDetailed(bg, nil, 1)
	}
	for _, m := range members {
		if !m.degraded(s) {
			t.Fatalf("member %s not degraded", m.name)
		}
	}
	// With every member degraded a read still tries someone — and the
	// first success readmits.
	members[1].failing.Store(false)
	var ok bool
	for i := 0; i < 4 && !ok; i++ {
		_, _, err := s.IdentifyDetailed(bg, nil, 1)
		ok = err == nil
	}
	if !ok {
		t.Fatal("no read answered after a member recovered")
	}
	if members[1].degraded(s) {
		t.Fatal("successful read did not readmit the member")
	}
}

func TestSetContextErrorDoesNotDegrade(t *testing.T) {
	s, members := fakeSet(t, 2)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	for i := 0; i < 10; i++ {
		if _, _, err := s.IdentifyDetailed(ctx, nil, 1); err == nil {
			t.Fatal("read succeeded on a canceled context")
		}
	}
	for _, m := range members {
		if m.degraded(s) {
			t.Fatalf("member %s degraded by the caller's cancellation", m.name)
		}
	}
}

// TestSetApplicationRefusalDoesNotDegrade: a verify on an unknown ID is
// answered by every member it fails over to, and an answer is proof of
// life — the same classifier the router uses (shard.Answered).
func TestSetApplicationRefusalDoesNotDegrade(t *testing.T) {
	s := NewSet("slot", shard.NewLocal("p", gallery.New(nil)),
		[]shard.Backend{shard.NewLocal("r", gallery.New(nil))}, SetOptions{})
	for i := 0; i < DefaultFailureThreshold; i++ {
		if _, err := s.Verify(bg, "nobody", &minutiae.Template{}); !errors.Is(err, gallery.ErrNotFound) {
			t.Fatalf("verify %d: err = %v, want ErrNotFound", i, err)
		}
	}
	for _, m := range s.members {
		if m.health.Degraded() {
			t.Fatalf("member %s charged for not-found answers", m.backend.Name())
		}
	}
}

func TestSetVerifyFailsOver(t *testing.T) {
	s, members := fakeSet(t, 2)
	members[0].failing.Store(true)
	members[1].failing.Store(true)
	if _, err := s.Verify(bg, "s1", nil); !errors.Is(err, errDown) {
		t.Fatalf("want the member error surfaced, got %v", err)
	}
	members[1].failing.Store(false)
	if _, err := s.Verify(bg, "s1", nil); err != nil {
		t.Fatalf("verify with one live member: %v", err)
	}
	if members[0].verifies.Load() == 0 && members[1].verifies.Load() == 0 {
		t.Fatal("no member attempted")
	}
}

func TestSetLenPrefersPrimaryFallsBack(t *testing.T) {
	s, members := fakeSet(t, 3)
	if n, err := s.Len(bg); err != nil || n != 7 {
		t.Fatalf("len = %d, %v", n, err)
	}
	members[0].failing.Store(true)
	if n, err := s.Len(bg); err != nil || n != 7 {
		t.Fatalf("len with dead primary = %d, %v; want replica fallback", n, err)
	}
	for _, m := range members {
		m.failing.Store(true)
	}
	if _, err := s.Len(bg); err == nil {
		t.Fatal("len with every member dead reported success")
	}
}
