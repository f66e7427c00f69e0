package nfiq

import "testing"

func TestClassValidity(t *testing.T) {
	for c := Excellent; c <= Poor; c++ {
		if !c.Valid() {
			t.Fatalf("%v should be valid", c)
		}
	}
	if Class(0).Valid() || Class(6).Valid() {
		t.Fatal("out-of-range classes reported valid")
	}
	if Excellent.String() != "NFIQ-1" {
		t.Fatal("class rendering wrong")
	}
}

func TestFromFidelityThresholds(t *testing.T) {
	cases := []struct {
		phi  float64
		want Class
	}{
		{0.95, Excellent},
		{0.80, Excellent},
		{0.70, VeryGood},
		{0.55, Good},
		{0.40, Fair},
		{0.10, Poor},
	}
	for _, c := range cases {
		if got := FromFidelity(c.phi); got != c.want {
			t.Fatalf("FromFidelity(%v) = %v, want %v", c.phi, got, c.want)
		}
	}
}

func TestFromFidelityMonotone(t *testing.T) {
	prev := Poor + 1
	for _, phi := range []float64{0.1, 0.3, 0.45, 0.6, 0.75, 0.95} {
		c := FromFidelity(phi)
		if !c.Valid() {
			t.Fatalf("FromFidelity(%v) invalid", phi)
		}
		if c > prev {
			t.Fatalf("class got worse as fidelity rose: %v after %v", c, prev)
		}
		prev = c
	}
	if FromFidelity(0.95) != Excellent || FromFidelity(0.05) != Poor {
		t.Fatal("fidelity extremes misclassified")
	}
}

func TestRecaptureRecommendation(t *testing.T) {
	// NIST SP 800-76: reacquire when quality is worse than 3.
	if RecaptureRecommended(Good) {
		t.Fatal("NFIQ-3 should not trigger recapture")
	}
	if !RecaptureRecommended(Fair) || !RecaptureRecommended(Poor) {
		t.Fatal("NFIQ-4/5 must trigger recapture")
	}
}
