package locksafe

import (
	"go/parser"
	"testing"

	"fpinterop/internal/analysis"
)

// TestTestdataViolations proves the analyzer flags exactly the corpus's
// marked lines — no misses, no extras.
func TestTestdataViolations(t *testing.T) {
	problems, err := analysis.RunTestdata("./internal/analysis/locksafe/testdata/src/a", New())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExprStringNormalisesReceivers pins how receiver expressions are
// named for pairing a Lock with its Unlock: parentheses, dereferences
// and address-of drop out, so (&s.mu).Lock() pairs with s.mu.Unlock(),
// and every index reads the same, so any element's lock is one region.
func TestExprStringNormalisesReceivers(t *testing.T) {
	for _, c := range []struct{ expr, want string }{
		{"mu", "mu"},
		{"s.mu", "s.mu"},
		{"s.inner.mu", "s.inner.mu"},
		{"(s.mu)", "s.mu"},
		{"(*s).mu", "s.mu"},
		{"&s.mu", "s.mu"},
		{"shards[i].mu", "shards[...].mu"},
		{"shards[len(shards)-1].mu", "shards[...].mu"},
		{"get().mu", "?.mu"},
	} {
		t.Run(c.expr, func(t *testing.T) {
			e, err := parser.ParseExpr(c.expr)
			if err != nil {
				t.Fatal(err)
			}
			if got := exprString(e); got != c.want {
				t.Fatalf("exprString(%s) = %q, want %q", c.expr, got, c.want)
			}
		})
	}
}
