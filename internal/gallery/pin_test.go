package gallery

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"fpinterop/internal/minutiae"
)

// pinFixture is the fixed three-entry gallery behind every format pin
// (here, in wal and in matchsvc): hand-built so no generator change can
// move the bytes.
func pinFixture() []Export {
	out := make([]Export, 3)
	for i, id := range []string{"alice", "bob", "carol"} {
		tpl := &minutiae.Template{Width: 400, Height: 500, DPI: 500}
		for j := 0; j < 12+i; j++ {
			tpl.Minutiae = append(tpl.Minutiae, minutiae.Minutia{
				X: float64(20 + 25*j + 7*i), Y: float64(30 + 31*j), Angle: float64(j) * 0.4,
				Kind: minutiae.Ending + minutiae.Type(j%2), Quality: uint8(60 + j),
			})
		}
		out[i] = Export{ID: id, DeviceID: fmt.Sprintf("D%d", i), Template: tpl}
	}
	return out
}

// checkPin compares got with the golden file written at the parent of
// the commit that introduced the shared record codec (07fb75f);
// FPINTEROP_UPDATE_PINS=1 rewrites it instead, which is only ever
// right when the format is meant to change.
func checkPin(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("FPINTEROP_UPDATE_PINS") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes written, golden has %d and differs", path, len(got), len(want))
	}
}

// TestFormatPinFPGD pins the template-set stream byte for byte.
func TestFormatPinFPGD(t *testing.T) {
	s := New(nil)
	if err := s.EnrollBatch(pinFixture()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	checkPin(t, "testdata/fixture.fpgd", buf.Bytes())
}

// TestReadEntriesRejectsCorruptCount rots the entry count of the
// pinned stream to 0xFFFFFFFF: the stream has no checksum, so the
// count must be refused against the three entries actually behind it
// — as an error, not as a preallocation for four billion entries.
func TestReadEntriesRejectsCorruptCount(t *testing.T) {
	data, err := os.ReadFile("testdata/fixture.fpgd")
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := ReadEntries(data)
	if err != nil || len(entries) != 3 {
		t.Fatalf("intact stream: %d entries, %v", len(entries), err)
	}
	for i, want := range pinFixture() {
		got := entries[i]
		wantTpl, _ := minutiae.Marshal(want.Template)
		gotTpl, _ := minutiae.Marshal(got.Template)
		if got.ID != want.ID || got.DeviceID != want.DeviceID || !bytes.Equal(gotTpl, wantTpl) {
			t.Fatalf("entry %d decoded as %q/%q", i, got.ID, got.DeviceID)
		}
	}
	copy(data[6:10], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = ReadEntries(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("corrupt count accepted")
	}
	// Honouring the count would have asked for ~170 GB up front.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the count allocated %d bytes", grew)
	}
}
