package users

import "testing"

func TestPopulationDeterminism(t *testing.T) {
	p1 := NewPopulation(Config{Seed: 7, EUShare: 0.4, RejectShare: 0.2, AbandonShare: 0.1})
	p2 := NewPopulation(Config{Seed: 7, EUShare: 0.4, RejectShare: 0.2, AbandonShare: 0.1})
	for i := 0; i < 100; i++ {
		if p1.Visitor(i) != p2.Visitor(i) {
			t.Fatalf("visitor %d differs", i)
		}
	}
}

func TestPopulationShares(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPopulation(cfg)
	const n = 20_000
	var eu, repeat, reject, abandon int
	for i := 0; i < n; i++ {
		v := p.Visitor(i)
		if v.EU {
			eu++
		}
		if v.HasConsentCookie {
			repeat++
		}
		switch v.Pref {
		case PrefReject:
			reject++
		case PrefAbandon:
			abandon++
		}
		if v.Speed <= 0 {
			t.Fatal("speed must be positive")
		}
		if v.Persistence < 0 || v.Persistence >= 1 {
			t.Fatal("persistence out of range")
		}
		if v.ID == "" {
			t.Fatal("missing visitor ID")
		}
	}
	within := func(got int, want, tol float64) bool {
		g := float64(got) / n
		return g > want-tol && g < want+tol
	}
	if !within(eu, cfg.EUShare, 0.02) {
		t.Errorf("EU share = %d/%d", eu, n)
	}
	if !within(repeat, repeatShare, 0.02) {
		t.Errorf("repeat share = %d/%d", repeat, n)
	}
	if !within(reject, cfg.RejectShare, 0.02) {
		t.Errorf("reject share = %d/%d", reject, n)
	}
	if !within(abandon, cfg.AbandonShare, 0.02) {
		t.Errorf("abandon share = %d/%d", abandon, n)
	}
}

func TestPreferenceString(t *testing.T) {
	if PrefAccept.String() != "accept" || PrefReject.String() != "reject" || PrefAbandon.String() != "abandon" {
		t.Error("preference names")
	}
}

func TestSessionStream(t *testing.T) {
	p := NewPopulation(DefaultConfig())
	v := p.Visitor(0)
	a, b := p.Stream(v), p.Stream(v)
	if a.Float64() != b.Float64() {
		t.Error("session streams must be reproducible per visitor")
	}
}
