package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sameDraws applies the draw mix ops to want (a math/rand source) and
// got (a lazySource) in lockstep and reports the first divergence.
// Each op byte picks a method; reseed is the seed a reseed op passes
// to both, so the mix also covers Seed in mid-stream.
func sameDraws(t *testing.T, seed int64, want, got *rand.Rand, ops []byte, reseed int64) {
	t.Helper()
	for i, op := range ops {
		var a, b any
		switch op % 11 {
		case 0:
			a, b = want.Int63(), got.Int63()
		case 1:
			a, b = want.Uint64(), got.Uint64()
		case 2:
			a, b = want.Float64(), got.Float64()
		case 3:
			n := 1 + int(op)*37
			a, b = want.Intn(n), got.Intn(n)
		case 4:
			n := int32(1 + int(op)<<20)
			a, b = want.Int31n(n), got.Int31n(n)
		case 5:
			a, b = want.NormFloat64(), got.NormFloat64()
		case 6:
			a, b = want.ExpFloat64(), got.ExpFloat64()
		case 7:
			pa, pb := want.Perm(int(op)%9), got.Perm(int(op)%9)
			for j := range pa {
				if pa[j] != pb[j] {
					t.Fatalf("seed %d op %d: Perm %v, math/rand %v", seed, i, pb, pa)
				}
			}
			continue
		case 8:
			xa, xb := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
			want.Shuffle(len(xa), func(i, j int) { xa[i], xa[j] = xa[j], xa[i] })
			got.Shuffle(len(xb), func(i, j int) { xb[i], xb[j] = xb[j], xb[i] })
			for j := range xa {
				if xa[j] != xb[j] {
					t.Fatalf("seed %d op %d: Shuffle %v, math/rand %v", seed, i, xb, xa)
				}
			}
			continue
		case 9:
			a, b = want.Int63n(1<<40+int64(op)), got.Int63n(1<<40+int64(op))
		case 10:
			if op == 10 { // rarely: reseed in mid-stream
				want.Seed(reseed)
				got.Seed(reseed)
				continue
			}
			a, b = want.Uint32(), got.Uint32()
		}
		if a != b {
			t.Fatalf("seed %d op %d (%d): got %v, math/rand %v", seed, i, op%11, b, a)
		}
	}
}

// TestLazySourceMatchesMathRand holds lazySource to rand.NewSource
// over 2 010 seeds: the special cases of math/rand's seed
// normalisation and 2 000 spread over int64, each with 1 500 mixed
// draws, enough for the feed and tap indices to wrap past word 0
// twice and for every register word to be seeded by both paths.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max - 1, 89482311, math.MinInt64, math.MaxInt64}
	for i := 0; len(seeds) < 2010; i++ {
		seeds = append(seeds, int64(mix64(uint64(i))))
	}
	ops := make([]byte, 1500)
	for i, seed := range seeds {
		for j := range ops {
			ops[j] = byte(mix64(uint64(i)<<16 | uint64(j)))
		}
		// Half the seeds reseed in mid-stream, at a point that varies.
		if i%2 == 0 {
			ops[200+i%900] = 10
		}
		sameDraws(t, seed, rand.New(rand.NewSource(seed)), newRand(seed), ops, seed^0x5bd1e995)
	}
}

// TestLazySourceLongRun draws well past the 334 draws after which
// every word has been seeded, on the plain Int63 path.
func TestLazySourceLongRun(t *testing.T) {
	for _, seed := range []int64{0, 42, -7, math.MinInt64} {
		want, got := rand.NewSource(seed), newRand(seed)
		for i := 0; i < 5*rngLen; i++ {
			if a, b := want.Int63(), got.Int63(); a != b {
				t.Fatalf("seed %d draw %d: got %d, math/rand %d", seed, i, b, a)
			}
		}
	}
}

// FuzzLazySource: any seed and any draw mix give math/rand's sequence.
func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21}, int64(3))
	f.Add(int64(math.MinInt64), []byte("Int63 Uint64 Float64 Perm"), int64(-1))
	f.Add(int64(int32max), make([]byte, 700), int64(int32max))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, reseed int64) {
		sameDraws(t, seed, rand.New(rand.NewSource(seed)), newRand(seed), ops, reseed)
	})
}

func BenchmarkStream(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := s.Stream("bench", "key")
		for j := 0; j < 56; j++ {
			r.Float64()
		}
	}
}
