package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// The parts of the output that vary from run to run: the listening
// port, the wire latencies of the two search paths and the time the
// expired-deadline identify took.
var (
	portRE    = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	latencyRE = regexp.MustCompile(`(?m)^(exhaustive|indexed) +\S+ +\S+`)
	elapsedRE = regexp.MustCompile(`(?m) after \S+$`)
)

// mask replaces what varies between runs with fixed placeholders and
// leaves every other byte as printed.
func mask(out []byte) []byte {
	out = portRE.ReplaceAll(out, []byte("127.0.0.1:PORT"))
	out = latencyRE.ReplaceAll(out, []byte("$1 P50 P99"))
	return elapsedRE.ReplaceAll(out, []byte(" after ELAPSED"))
}

// TestOutputMatchesGolden runs the example and compares what it prints,
// with the port and latencies masked, byte for byte with
// testdata/remotematch.golden: the scores, decisions, identities,
// deadline error, index sizes, rank-1 counts and shortlist lengths.
// FPINTEROP_UPDATE_PINS=1 rewrites the file instead.
func TestOutputMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := mask(out.Bytes())
	const golden = "testdata/remotematch.golden"
	if os.Getenv("FPINTEROP_UPDATE_PINS") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("masked output differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestMaskKeepsOnlyStableBytes(t *testing.T) {
	in := "match service listening on 127.0.0.1:39535\n" +
		"expired-deadline identify: err=context deadline exceeded (is deadline: true) after 1ms\n" +
		"exhaustive       35.9ms     48.9ms    25/25        0.0\n" +
		"indexed           7.6ms       20ms    24/25       64.0\n"
	want := "match service listening on 127.0.0.1:PORT\n" +
		"expired-deadline identify: err=context deadline exceeded (is deadline: true) after ELAPSED\n" +
		"exhaustive P50 P99    25/25        0.0\n" +
		"indexed P50 P99    24/25       64.0\n"
	if got := string(mask([]byte(in))); got != want {
		t.Fatalf("mask:\n%s\nwant:\n%s", got, want)
	}
}
