package sentinelerr

import (
	"testing"

	"fpinterop/internal/analysis"
)

// TestTestdataViolations proves the analyzer flags exactly the corpus's
// marked lines.
func TestTestdataViolations(t *testing.T) {
	problems, err := analysis.RunTestdata("./internal/analysis/sentinelerr/testdata/src/a", New())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
