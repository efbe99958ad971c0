package gvl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// pinnedHistories holds the SHA-256 of the JSON of the paper-scale v1
// history and of its v2 upgrade at three seeds, recorded from the
// generator that deep-copied and re-sorted every vendor on each
// published version. Copy-on-write vendor slices must publish the
// same bytes.
var pinnedHistories = []struct {
	seed   uint64
	v1, v2 string
}{
	{1,
		"5e3585698063ea61b5b18e1ee9aee4929a084212f4b0b4ee1b169dc7e07504a7",
		"d4ff7b857f54901ba5ef95f59f8d492ed64f0260b15edfac5ae001ca3cdaf20f"},
	{2,
		"7b814ca09fd0723ad0b77deec446eb54fbd0821c87151d7c5fffc50d5fe9e76e",
		"40406bdca6be4d76315c7d7b2b592f7f7426d9e103b6639c6045a62348fbdddc"},
	{7,
		"d730019387a83c1ec4c6bfda54b159e30a502c3980e2d5cba0e2e2344ce502ef",
		"cac2eaa942ac21aabaa895adb0504471942b632396d6984fed4779b69821a635"},
}

func TestHistoryPinned(t *testing.T) {
	for _, p := range pinnedHistories[:pinnedSeeds] {
		cfg := DefaultHistoryConfig()
		cfg.Seed = p.seed
		h := GenerateHistory(cfg)
		if got := jsonSHA256(t, h); got != p.v1 {
			t.Errorf("seed %d: v1 history JSON sha256 %s, pinned %s", p.seed, got, p.v1)
		}
		if got := jsonSHA256(t, UpgradeHistory(h, DefaultV2UpgradeConfig())); got != p.v2 {
			t.Errorf("seed %d: v2 history JSON sha256 %s, pinned %s", p.seed, got, p.v2)
		}
	}
}

func jsonSHA256(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestCopyOnWriteEdits: removeInt and insertInt leave their input's
// whole backing array as it was, spare capacity included, and return
// a slice that shares none of it. Published versions share vendor
// slices, so an edit in place would rewrite history.
func TestCopyOnWriteEdits(t *testing.T) {
	backing := []int{1, 3, 5, 99, 99}
	in := backing[:3]
	check := func(op string, out []int, want []int) {
		t.Helper()
		if !reflect.DeepEqual(out, want) {
			t.Errorf("%s = %v, want %v", op, out, want)
		}
		if !reflect.DeepEqual(backing, []int{1, 3, 5, 99, 99}) {
			t.Fatalf("%s wrote into its input: backing now %v", op, backing)
		}
		if len(out) > 0 {
			out[0] = -1
			if backing[0] != 1 {
				t.Fatalf("%s returned a slice sharing its input", op)
			}
		}
	}
	check("removeInt(3)", removeInt(in, 3), []int{1, 5})
	check("removeInt(1)", removeInt(in, 1), []int{3, 5})
	check("removeInt(7)", removeInt(in, 7), []int{1, 3, 5})
	check("insertInt(0)", insertInt(in, 0), []int{0, 1, 3, 5})
	check("insertInt(4)", insertInt(in, 4), []int{1, 3, 4, 5})
	check("insertInt(6)", insertInt(in, 6), []int{1, 3, 5, 6})
	if out := removeInt([]int{2}, 2); out != nil {
		t.Errorf("removeInt of the last element = %#v, want nil (publishes as null)", out)
	}
	if out := insertInt(nil, 2); !reflect.DeepEqual(out, []int{2}) {
		t.Errorf("insertInt(nil, 2) = %v", out)
	}
}

func BenchmarkGenerateHistory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateHistory(DefaultHistoryConfig())
	}
}
