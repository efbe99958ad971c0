package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{1, 2}, 1.5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tt := range tests {
		got, err := Median(tt.in)
		if err != nil || !almost(got, tt.want, 1e-12) {
			t.Errorf("Median(%v) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
	if _, err := Median(nil); err != ErrEmpty {
		t.Error("empty median must fail")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tt := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, tt.q)
		if err != nil || !almost(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range quantile must fail")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Error("NaN quantile must fail")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile must not mutate its input")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 2 || s.Max != 8 || !almost(s.Mean, 5, 1e-12) || !almost(s.Median, 5, 1e-12) {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestMannWhitneyKnown(t *testing.T) {
	// Classic example: group A clearly below group B.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	res, err := MannWhitney(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 0 {
		t.Errorf("U = %v, want 0 (complete separation)", res.U)
	}
	if res.U2 != 25 {
		t.Errorf("U2 = %v, want 25", res.U2)
	}
	if res.P > 0.02 {
		t.Errorf("p = %v, want significant", res.P)
	}
	if res.Z >= 0 {
		t.Errorf("z = %v, want negative (A below B)", res.Z)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	// a = {1,2,2}, b = {2,3,4}: midranks give R1 = 1+3+3 = 7, so
	// U1 = 7 - 6 = 1 (pair counting: 0 + 0.5 + 0.5). Tie-corrected
	// sigma² = 0.75·(7 - 24/30) = 4.65, z = (1-4.5+0.5)/2.156 ≈ -1.39,
	// p ≈ 0.16.
	a := []float64{1, 2, 2}
	b := []float64{2, 3, 4}
	res, err := MannWhitney(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.U, 1, 1e-9) {
		t.Errorf("U = %v, want 1", res.U)
	}
	if !almost(res.P, 0.164, 0.02) {
		t.Errorf("p = %v, want ≈0.164", res.P)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	res, err := MannWhitney([]float64{5, 5}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 || res.Z != 0 {
		t.Errorf("all-tied: z=%v p=%v, want 0/1", res.Z, res.P)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if _, err := MannWhitney(nil, []float64{1}); err != ErrEmpty {
		t.Error("empty sample must fail")
	}
}

// TestMannWhitneyUSum checks the invariant U1 + U2 = n1*n2.
func TestMannWhitneyUSum(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(n1, n2 uint8) bool {
		m1, m2 := int(n1%20)+1, int(n2%20)+1
		a := make([]float64, m1)
		b := make([]float64, m2)
		for i := range a {
			a[i] = math.Floor(r.Float64() * 10) // induce ties
		}
		for i := range b {
			b[i] = math.Floor(r.Float64() * 10)
		}
		res, err := MannWhitney(a, b)
		if err != nil {
			return false
		}
		return almost(res.U1+res.U2, float64(m1*m2), 1e-9) &&
			res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMannWhitneySymmetry: swapping samples flips the sign of z and
// mirrors U.
func TestMannWhitneySymmetry(t *testing.T) {
	a := []float64{1.2, 3.4, 2.2, 5.5}
	b := []float64{2.1, 6.7, 4.4}
	r1, _ := MannWhitney(a, b)
	r2, _ := MannWhitney(b, a)
	if !almost(r1.U1, r2.U2, 1e-9) || !almost(r1.Z, -r2.Z, 1e-9) || !almost(r1.P, r2.P, 1e-9) {
		t.Errorf("symmetry violated: %+v vs %+v", r1, r2)
	}
}

func TestMannWhitneyBalanced(t *testing.T) {
	// R1 = 1+4+5+8+9 = 27, U1 = 27-15 = 12; near the null mean 12.5,
	// so with continuity correction z = 0 and p = 1.
	res, err := MannWhitney([]float64{1, 4, 5, 8, 9}, []float64{2, 3, 6, 7, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.U, 12, 1e-9) {
		t.Errorf("U = %v, want 12", res.U)
	}
	if res.P < 0.9 {
		t.Errorf("p = %v, want ≈1 (no evidence)", res.P)
	}
}
