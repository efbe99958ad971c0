// Package rng provides deterministic, splittable randomness.
//
// Every stochastic component of the simulation draws from a stream keyed
// by (seed, textual key). Keyed streams make per-entity randomness stable
// under reordering: the properties of domain "example.com" are identical
// whether it is generated first or last, crawled once or a million times.
// This is what makes the whole reproduction bit-reproducible for a given
// top-level seed.
package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
)

// Source derives deterministic sub-streams from a root seed.
type Source struct {
	seed uint64
}

// New returns a Source rooted at seed.
func New(seed uint64) *Source {
	return &Source{seed: seed}
}

// Seed returns the root seed of the source.
func (s *Source) Seed() uint64 { return s.seed }

// hash mixes the root seed with the key parts into a 64-bit state.
// FNV-1a alone has weak avalanche in the high bits for short keys, so
// the digest is finalized with a splitmix64 mix.
func (s *Source) hash(parts ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], s.seed)
	h.Write(buf[:])
	for _, p := range parts {
		h.Write([]byte{0x1f}) // separator: avoids ("ab","c") == ("a","bc")
		h.Write([]byte(p))
	}
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream returns an independent *rand.Rand for the given key parts.
// Identical (seed, parts) always yield an identical stream: the one
// rand.New(rand.NewSource(int64(hash))) yields, seeded lazily
// (lazySource) so a stream that draws a few values costs a few words
// of seeding, not 607.
func (s *Source) Stream(parts ...string) *rand.Rand {
	return newRand(int64(s.hash(parts...)))
}

// Derive returns a child Source whose streams are independent from the
// parent's, for handing a component its own namespace.
func (s *Source) Derive(parts ...string) *Source {
	return &Source{seed: s.hash(parts...)}
}

// Float64 returns a uniform [0,1) draw for the key, without allocating
// a full rand.Rand. Useful for one-shot per-entity decisions.
func (s *Source) Float64(parts ...string) float64 {
	// Use the upper 53 bits for a uniform float, as math/rand does.
	return float64(s.hash(parts...)>>11) / (1 << 53)
}

// Uint64 returns a uniform 64-bit draw for the key.
func (s *Source) Uint64(parts ...string) uint64 {
	return s.hash(parts...)
}

// Intn returns a uniform draw from [0,n) for the key. It panics if
// n <= 0, mirroring math/rand.
func (s *Source) Intn(n int, parts ...string) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.hash(parts...) % uint64(n))
}

// Bool returns true with probability p for the key.
func (s *Source) Bool(p float64, parts ...string) bool {
	return s.Float64(parts...) < p
}

// Key formats an integer for use as a key part.
func Key(i int) string { return strconv.Itoa(i) }

// LogNormal draws from a log-normal distribution with the location mu
// and scale sigma of the underlying normal. Human interaction latencies
// (dialog read/decide times) are modelled as log-normal, following the
// heavy right skew the paper reports (it uses nonparametric tests for
// exactly this reason).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// Zipf draws ranks in [1,n] with P(rank) proportional to rank^-s.
// Social-media URL sharing frequency is Zipf-distributed over domain
// popularity ("our URL sample skews heavily towards popular URLs").
type Zipf struct {
	n   int
	cdf []float64
}

// NewZipf precomputes the CDF for a Zipf distribution over [1,n] with
// exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{n: n, cdf: make([]float64, n)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -s)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Rank draws a rank in [1,n].
func (z *Zipf) Rank(r *rand.Rand) int {
	u := r.Float64()
	// Binary search the CDF.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// N returns the support size of the distribution.
func (z *Zipf) N() int { return z.n }
