package decision

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedPopulations holds the SHA-256 of the newline-joined strings of
// a default-size population at two seeds, and of the batch bodies a
// default load run renders over it, recorded while the generator's
// shares and bounds were still PopulationConfig and LoadConfig fields.
// Folding their defaults into constants must generate the same bytes.
var pinnedPopulations = []struct {
	seed          uint64
	strings, body string
}{
	{1,
		"e3032f07b0ba0a3f19109cf19d4090fc929358849c2afa6ca429c5cb4bfbcf34",
		"c1b3842b13fbaf73db8b3a122802d39a39965b7527cef6ff4641fa68786a0d34"},
	{42,
		"c480fda8bca8c0fe6defe1a92a590a474afe174aa5eb664f63c42d91fe1c364a",
		"d4714ae18886bed0eabedf31d5e3f47a88927049acc9bce95e35db693bcdf3ce"},
}

func TestPopulationPinned(t *testing.T) {
	for _, p := range pinnedPopulations {
		pop, err := GeneratePopulation(PopulationConfig{Seed: p.seed})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range pop.Strings {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != p.strings {
			t.Errorf("seed %d: population sha256 %s, pinned %s", p.seed, got, p.strings)
		}
		h.Reset()
		for _, b := range PrerenderBodies(LoadConfig{Population: pop, Bodies: 16}) {
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != p.body {
			t.Errorf("seed %d: load bodies sha256 %s, pinned %s", p.seed, got, p.body)
		}
	}
}
