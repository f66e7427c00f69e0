package matchsvc

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fpinterop/internal/gallery"
	"fpinterop/internal/minutiae"
)

// TestScanAndHasRoundTrip exercises the bulk-transfer wire ops the
// shard rebalancer rides on: Has for ownership probes, Scan for
// cursor-paged streaming of whole enrollments.
func TestScanAndHasRoundTrip(t *testing.T) {
	cli, _ := startServer(t)
	ctx := context.Background()
	tpls := testImpressions(t, 5, "D0", 0)
	for i, tpl := range tpls {
		if err := cli.Enroll(ctx, fmt.Sprintf("subject-%04d", i), "D0", tpl); err != nil {
			t.Fatal(err)
		}
	}

	ok, err := cli.Has(ctx, "subject-0002")
	if err != nil || !ok {
		t.Fatalf("Has(existing) = %v, %v", ok, err)
	}
	ok, err = cli.Has(ctx, "ghost")
	if err != nil || ok {
		t.Fatalf("Has(missing) = %v, %v", ok, err)
	}

	// Page with max=2: cursor pagination must walk the whole gallery in
	// ID order with no gaps or repeats, ending on an empty page.
	var got []gallery.Export
	after := ""
	pages := 0
	for {
		page, err := cli.Scan(ctx, after, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		if len(page) > 2 {
			t.Fatalf("page of %d exceeds requested max 2", len(page))
		}
		after = page[len(page)-1].ID
		got = append(got, page...)
		pages++
	}
	if len(got) != len(tpls) || pages < 3 {
		t.Fatalf("scanned %d entries over %d pages, want %d over >= 3", len(got), pages, len(tpls))
	}
	for i, e := range got {
		wantID := fmt.Sprintf("subject-%04d", i)
		if e.ID != wantID || e.DeviceID != "D0" {
			t.Fatalf("entry %d = (%q, %q), want (%q, \"D0\")", i, e.ID, e.DeviceID, wantID)
		}
		if e.Template == nil || len(e.Template.Minutiae) == 0 {
			t.Fatalf("entry %d carried no template", i)
		}
		// The transferred template must survive the codec byte-for-byte:
		// a rebalanced shard has to score identically to the source.
		want, err := minutiae.Marshal(tpls[i])
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := minutiae.Marshal(e.Template)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotB) != string(want) {
			t.Fatalf("entry %d template mutated in transit", i)
		}
	}
}

// scanlessBackend refuses Scan and Has the way a backend that spans
// many stores (a router front) does: the contract has the methods, the
// answer is an error.
type scanlessBackend struct{ Backend }

func (scanlessBackend) Scan(context.Context, string, int) ([]gallery.Export, error) {
	return nil, errors.New("no scan here")
}
func (scanlessBackend) Has(context.Context, string) (bool, error) {
	return false, errors.New("no has here")
}

// TestScanWithoutCapabilityRefused pins that a backend which cannot
// page or probe its enrollments gets its refusal to the client instead
// of the server panicking or fabricating pages.
func TestScanWithoutCapabilityRefused(t *testing.T) {
	srv := NewBackendServer(scanlessBackend{Local{Store: gallery.New(nil)}}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	cli, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if _, err := cli.Scan(ctx, "", 8); !errors.Is(err, ErrRemote) {
		t.Fatalf("Scan against a scanless backend: %v, want ErrRemote", err)
	}
	if _, err := cli.Has(ctx, "x"); !errors.Is(err, ErrRemote) {
		t.Fatalf("Has against a haserless backend: %v, want ErrRemote", err)
	}
}
