package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"regexp"
	"strings"
	"testing"

	"fpinterop/internal/matchsvc"
)

// TestLogLines pins what readers of matchd's log rely on: the smokes'
// address patterns read the two listening lines, each with a space
// before msg= as the benchmark harness's patterns require, and only the
// wire server's lines carry component=matchsvc.
func TestLogLines(t *testing.T) {
	cases := []struct {
		name      string
		log       func(*slog.Logger)
		re        *regexp.Regexp // reads the address; nil for none
		addr      string
		component bool
		has       []string
	}{
		{"listening", func(l *slog.Logger) {
			l.Info("listening", "addr", "127.0.0.1:7400", "enrollments", 1000)
		}, listenRe, "127.0.0.1:7400", false, nil},
		{"metrics listening", func(l *slog.Logger) {
			l.Info("metrics listening", "addr", "127.0.0.1:40001")
		}, metricsRe, "127.0.0.1:40001", false, nil},
		{"server", func(l *slog.Logger) {
			sendOversizedFrame(t, l.With("component", "matchsvc"))
		}, nil, "", true, []string{"level=WARN", " remote=127.0.0.1:", " err="}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			tc.log(newLogger(&b))
			line := b.String()
			if strings.Count(line, "\n") != 1 {
				t.Fatalf("want one line, got %q", line)
			}
			for _, re := range []*regexp.Regexp{listenRe, metricsRe} {
				m := re.FindStringSubmatchIndex(line)
				if re != tc.re {
					if m != nil {
						t.Fatalf("%s matched %q", re, line)
					}
					continue
				}
				if m == nil || line[m[2]:m[3]] != tc.addr {
					t.Fatalf("%s does not read %s from %q", re, tc.addr, line)
				}
				if m[0] == 0 || line[m[0]-1] != ' ' {
					t.Fatalf("no space before msg= in %q", line)
				}
			}
			if got := strings.Contains(line, " component=matchsvc"); got != tc.component {
				t.Fatalf("component=matchsvc present = %v, want %v: %q", got, tc.component, line)
			}
			for _, s := range tc.has {
				if !strings.Contains(line, s) {
					t.Fatalf("%q missing from %q", s, line)
				}
			}
		})
	}
}

// sendOversizedFrame makes a wire server logging to logger drop one
// connection: the client's first frame header declares a length beyond
// the protocol's limit. It returns once the server has logged the drop.
func sendOversizedFrame(t *testing.T, logger *slog.Logger) {
	t.Helper()
	srv := matchsvc.NewServer(nil, logger)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(context.Background()) // ends at Close
	}()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x01}); err != nil {
		t.Fatal(err)
	}
	// The server logs before it closes the connection: EOF here means
	// the line is written.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-done
}
