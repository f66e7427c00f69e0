package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden runs the example and compares what it prints,
// byte for byte, with testdata/qualitygate.golden. The example seeds
// every cohort and capture, so its output never varies;
// FPINTEROP_UPDATE_PINS=1 rewrites the file instead.
func TestOutputMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/qualitygate.golden"
	if os.Getenv("FPINTEROP_UPDATE_PINS") != "" {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from %s\ngot:\n%s\nwant:\n%s", golden, out.Bytes(), want)
	}
}
