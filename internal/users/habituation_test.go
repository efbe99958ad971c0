package users

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHabituationMonotone(t *testing.T) {
	prevTime, prevBoost := 1.0, 0.0
	for _, exp := range []int{0, 1, 5, 12, 50, 500} {
		h := DefaultHabituation(exp)
		tf, ab := h.TimeFactor(), h.AcceptBoost()
		if tf > prevTime {
			t.Errorf("time factor must shrink with exposure: %v after %v", tf, prevTime)
		}
		if ab < prevBoost {
			t.Errorf("accept boost must grow with exposure: %v after %v", ab, prevBoost)
		}
		prevTime, prevBoost = tf, ab
	}
	fresh := DefaultHabituation(0)
	if fresh.TimeFactor() != 1 || fresh.AcceptBoost() != 0 {
		t.Error("fresh users are unaffected")
	}
}

func TestHabituationBounds(t *testing.T) {
	f := func(exposures uint16) bool {
		h := DefaultHabituation(int(exposures))
		tf, ab := h.TimeFactor(), h.AcceptBoost()
		return tf > 0.54 && tf <= 1 && ab >= 0 && ab < 0.10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHabituationHalfLife(t *testing.T) {
	h := DefaultHabituation(12) // exactly the half-life
	if got := h.AcceptBoost(); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("boost at half-life = %v, want 0.05", got)
	}
	if got := h.TimeFactor(); math.Abs(got-(1-0.45/2)) > 1e-9 {
		t.Errorf("time factor at half-life = %v", got)
	}
}

func TestHabituationApply(t *testing.T) {
	pop := NewPopulation(DefaultConfig())
	h := DefaultHabituation(100)
	flipped, rejectors := 0, 0
	for i := 0; i < 5_000; i++ {
		v := pop.Visitor(i)
		if v.Pref != PrefReject {
			continue
		}
		rejectors++
		after := h.Apply(v)
		if after.Speed >= v.Speed {
			t.Fatal("habituated visitors must be faster")
		}
		if after.Pref == PrefAccept {
			flipped++
		}
	}
	if rejectors == 0 {
		t.Fatal("no rejectors sampled")
	}
	if flipped == 0 || flipped == rejectors {
		t.Errorf("flipped %d of %d rejectors; want a proper fraction", flipped, rejectors)
	}
}
