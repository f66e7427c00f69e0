package matchsvc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
	"fpinterop/internal/wal"
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

// rawDial speaks the protocol by hand — a hello, then one enveloped
// request and one response per call on the same connection — against a
// server over store, so a pin sees exactly the bytes a peer built from
// another commit would.
func rawDial(t *testing.T, store Store) (call func(op byte, body []byte) (status byte, resp []byte)) {
	t.Helper()
	srv := NewServer(store, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		cancel()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	if err := writeFrame(conn, OpHello, helloVersion[:]); err != nil {
		t.Fatal(err)
	}
	if status, _, err := readFrame(conn); err != nil || status != StatusOK {
		t.Fatalf("hello: status 0x%02x, %v", status, err)
	}
	var next uint64
	return func(op byte, body []byte) (byte, []byte) {
		t.Helper()
		next++
		var hdr [muxFrameHdrSize]byte
		if err := writeMuxFrame(conn, op, next, 0, body, &hdr); err != nil {
			t.Fatal(err)
		}
		status, payload, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		id, _, resp, err := openMuxEnvelope(status, payload)
		if err != nil || id != next {
			t.Fatalf("response to request %d: status 0x%02x id %d: %v", next, status, id, err)
		}
		return status, resp
	}
}

// rawCall is one request on a fresh rawDial connection that must
// succeed; it returns the response body.
func rawCall(t *testing.T, store Store, op byte, body []byte) []byte {
	t.Helper()
	status, resp := rawDial(t, store)(op, body)
	if status != StatusOK {
		t.Fatalf("opcode 0x%02x: status 0x%02x: %q", op, status, resp)
	}
	return resp
}

// checkPin compares got with the golden response body a server built
// at the parent of the shared-codec commit (07fb75f) sent for the same
// request; FPINTEROP_UPDATE_PINS=1 rewrites it instead.
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
		t.Fatalf("%s: %d bytes sent, golden has %d and differs", path, len(got), len(want))
	}
}

// pinWALStore replays wal's pinned history (internal/wal/pin_test.go):
// the fixture at LSNs 1-3, then enroll, remove and a two-item batch at
// LSNs 4-7.
func pinWALStore(t testing.TB) *wal.Store {
	t.Helper()
	fx := pinFixture()
	ws, err := wal.Open(t.TempDir(), gallery.New(nil), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	steps := []func() error{
		func() error { return ws.EnrollBatch(fx) },
		func() error { return ws.Enroll("dave", "D0", fx[0].Template) },
		func() error { return ws.Remove("bob") },
		func() error {
			return ws.EnrollBatch([]gallery.Export{
				{ID: "erin", DeviceID: "D1", Template: fx[1].Template},
				{ID: "bob", DeviceID: "D2", Template: fx[2].Template},
			})
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return ws
}

// TestFormatPinSyncTailResponse pins the OpSyncTail page above LSN 3:
// an enroll, a remove and the two enrolls of a batch.
func TestFormatPinSyncTailResponse(t *testing.T) {
	req := make([]byte, 12) // afterLSN 3, max bytes 0 (the server's budget)
	binary.BigEndian.PutUint64(req, 3)
	checkPin(t, "testdata/opsynctail.body", rawCall(t, pinWALStore(t), OpSyncTail, req))
}

// TestClientReadsParentBuiltPages is the other direction of the pin
// above: a client built from this tree, facing a peer that sends the
// golden (parent-built) page body, must decode it into the pinned
// history — a replica of this commit can follow a primary of the last
// one.
func TestClientReadsParentBuiltPages(t *testing.T) {
	golden := func(name string) string {
		body, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return fakeServer(t, func(conn net.Conn, id uint64) { reply(conn, StatusOK, id, body) })
	}
	tplBytes := func(tpl *minutiae.Template) []byte {
		data, err := minutiae.Marshal(tpl)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fx := pinFixture()
	ctx := context.Background()

	page, err := dialFake(t, golden("opsynctail.body")).SyncTail(ctx, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []wal.Record{
		{LSN: 4, Op: wal.OpEnroll, ID: "dave", DeviceID: "D0", Template: tplBytes(fx[0].Template)},
		{LSN: 5, Op: wal.OpRemove, ID: "bob"},
		{LSN: 6, Op: wal.OpEnroll, ID: "erin", DeviceID: "D1", Template: tplBytes(fx[1].Template)},
		{LSN: 7, Op: wal.OpEnroll, ID: "bob", DeviceID: "D2", Template: tplBytes(fx[2].Template)},
	}
	if page.PrimaryLSN != 7 || page.Truncated || len(page.Records) != len(want) {
		t.Fatalf("tail page: %+v", page)
	}
	for i, w := range want {
		got := page.Records[i]
		if got.LSN != w.LSN || got.Op != w.Op || got.ID != w.ID || got.DeviceID != w.DeviceID || !bytes.Equal(got.Template, w.Template) {
			t.Fatalf("tail record %d decoded as %+v, want %+v", i, got, w)
		}
	}
}

// TestRetiredOpcodesAnswerUnknown pins how a negotiated connection
// treats the opcodes earlier revisions assigned: each gets the
// unknown-opcode error under the plain error status, not a dropped
// connection — the very next request on the same connection is served.
func TestRetiredOpcodesAnswerUnknown(t *testing.T) {
	store := gallery.New(nil)
	if err := store.EnrollBatch(pinFixture()); err != nil {
		t.Fatal(err)
	}
	call := rawDial(t, store)
	for _, op := range retiredOpcodes {
		// The body a has request carried: uint16 length 5, "alice".
		status, resp := call(op, []byte{0, 5, 'a', 'l', 'i', 'c', 'e'})
		err := decodeResponse(status, resp, nil)
		if status != StatusError || !strings.Contains(err.Error(), fmt.Sprintf("unknown opcode 0x%02x", op)) {
			t.Fatalf("opcode 0x%02x: status 0x%02x, %v", op, status, err)
		}
		status, resp = call(OpCount, nil)
		if status != StatusOK || !bytes.Equal(resp, []byte{0, 0, 0, 3}) {
			t.Fatalf("count after opcode 0x%02x: status 0x%02x, body %x", op, status, resp)
		}
	}
}
