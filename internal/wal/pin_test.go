package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
)

// pinFixture is gallery's pin fixture (internal/gallery/pin_test.go),
// repeated because test helpers do not cross packages.
func pinFixture() []gallery.Export {
	out := make([]gallery.Export, 3)
	for i, id := range []string{"alice", "bob", "carol"} {
		tpl := &minutiae.Template{Width: 400, Height: 500, DPI: 500}
		for j := 0; j < 12+i; j++ {
			tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
				X: float64(20 + 25*j + 7*i), Y: float64(30 + 31*j), Angle: float64(j) * 0.4,
				Kind: minutiae.Ending + minutiae.Type(j%2), Quality: uint8(60 + j),
			})
		}
		out[i] = gallery.Export{ID: id, DeviceID: fmt.Sprintf("D%d", i), Template: tpl}
	}
	return out
}

// writePinHistory runs the pinned history against a store in dir: a
// batch of the three fixture entries and a compaction (so the snapshot
// holds exactly the fixture at LSN 3), then one enroll, one remove and
// one batch left in the log as LSNs 4 to 7.
func writePinHistory(t *testing.T, dir string) {
	t.Helper()
	fx := pinFixture()
	s := openStore(t, dir, Options{})
	steps := []func() error{
		func() error { return s.EnrollBatch(fx) },
		s.Compact,
		func() error { return s.Enroll("dave", "D0", fx[0].Template) },
		func() error { return s.Remove("bob") },
		func() error {
			return s.EnrollBatch([]gallery.Export{
				{ID: "erin", DeviceID: "D1", Template: fx[1].Template},
				{ID: "bob", DeviceID: "D2", Template: fx[2].Template},
			})
		},
		s.Close,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

const pinDir = "testdata/parent-wal"

// TestFormatPinWALDir pins wal.log (enroll, remove and batch records)
// and snapshot.fpws byte for byte against the files the parent of the
// shared-codec commit (07fb75f) wrote for the same history;
// FPINTEROP_UPDATE_PINS=1 rewrites them instead.
func TestFormatPinWALDir(t *testing.T) {
	dir := t.TempDir()
	writePinHistory(t, dir)
	for _, name := range []string{logName, snapName} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join(pinDir, name)
		if os.Getenv("FPINTEROP_UPDATE_PINS") != "" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes written, golden has %d and differs", name, len(got), len(want))
		}
	}
}

// TestRecoverParentWrittenDir opens a copy of the committed,
// parent-written directory: snapshot restore plus replay must rebuild
// the history's outcome, in insertion order, with nothing torn.
func TestRecoverParentWrittenDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{logName, snapName} {
		data, err := os.ReadFile(filepath.Join(pinDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, dir, Options{})
	defer s.Close()
	// The snapshot covers LSN 3: seven records, four replayed above it.
	rs := s.Recovery()
	if s.LSN()-uint64(rs.Replayed) != 3 || rs.SnapshotEntries != 3 || rs.Replayed != 4 || rs.TornTail || s.LSN() != 7 {
		t.Fatalf("recovery %+v, lsn %d", rs, s.LSN())
	}
	want := []gallery.Export{
		{ID: "alice", DeviceID: "D0"}, {ID: "carol", DeviceID: "D2"}, {ID: "dave", DeviceID: "D0"},
		{ID: "erin", DeviceID: "D1"}, {ID: "bob", DeviceID: "D2"},
	}
	got := insertionOrder(t, s)
	if len(got) != len(want) {
		t.Fatalf("recovered %v", got)
	}
	fx := pinFixture()
	tplOf := map[string]int{"alice": 0, "carol": 2, "dave": 0, "erin": 1, "bob": 2}
	for i, w := range want {
		e, ok := s.Get(w.ID)
		if got[i] != w.ID || !ok || e.DeviceID != w.DeviceID {
			t.Fatalf("entry %d: got %q (%+v), want %+v", i, got[i], e, w)
		}
		// The log holds the codec's form of the fixture, and the store
		// serves exactly that.
		data, err := minutiae.Marshal(fx[tplOf[w.ID]].Template)
		if err != nil {
			t.Fatal(err)
		}
		wantTpl, err := minutiae.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTemplate(e.Template, wantTpl) {
			t.Fatalf("%s: template differs after recovery", w.ID)
		}
	}
}
