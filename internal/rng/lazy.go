package rng

import "math/rand"

// math/rand's additive lagged Fibonacci generator: a 607-word register
// read at two indices, feed and tap, 273 apart.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, prime
	lehmerA  = 48271
)

// lehmerPow[i][j] is 48271^(21+3i+j) mod (2³¹−1): the multipliers that
// take a normalised seed to the three Lehmer states behind register
// word i.
var lehmerPow [rngLen][3]uint64

func init() {
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = x * lehmerA % int32max
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			x = x * lehmerA % int32max
			lehmerPow[i][j] = x
		}
	}
}

// lazySource returns exactly the sequence of rand.NewSource(seed) but
// seeds each register word on first touch instead of all 607 up front,
// and keeps the register inline only as far as most streams read it.
//
// rand.NewSource runs the Lehmer generator x ← 48271·x mod (2³¹−1)
// from the seed, discards 20 states, and builds word i from the next
// three, so word i is x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i]
// with x_k = seed·48271^k mod (2³¹−1), one multiplication per state.
// The register is then read in a fixed order: draw c (from 1) adds
// word 607−c (tap) into word 334−c (feed), both indices descending and
// wrapping. Draws 1–334 are the first to touch each feed word and
// draws 1–273 the first to touch each tap word; after draw 334 every
// word has been touched, so a stream that draws n values seeds
// min(n,334)+min(n,273) words, not 607.
//
// Nearly every stream draws fewer than lazyWin values. Until then the
// source holds only the feed words it has written (win); the tap
// words it read are still their seeded values. Draw lazyWin+1 spills
// both into a full register (vec) and goes on from there.
type lazySource struct {
	vec   *[rngLen]int64 // the register, once a stream outgrows win
	seed  uint64         // normalised: 1 ≤ seed < 2³¹−1
	tap   int
	feed  int
	drawn int // draws made, counted up to rngLen−rngTap
	win   [lazyWin]int64
}

// lazyWin is how many draws lazySource serves without a full
// register. In the -quick study 99.6% of streams draw fewer than 96
// values, and the source fits an 896-byte size class.
const lazyWin = 96

// Seed resets the source to rand.NewSource(seed)'s initial state.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	s.drawn = 0
}

// word is the seeded value of register word i.
func (s *lazySource) word(i int) int64 {
	p := &lehmerPow[i]
	return int64(s.seed*p[0]%int32max)<<40 ^
		int64(s.seed*p[1]%int32max)<<20 ^
		int64(s.seed*p[2]%int32max) ^
		rngCooked[i]
}

// Uint64 is math/rand's rngSource.Uint64 with first touches seeded.
func (s *lazySource) Uint64() uint64 {
	if s.drawn == lazyWin {
		s.spill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < lazyWin {
		x := s.word(s.feed) + s.word(s.tap)
		s.win[s.drawn] = x
		s.drawn++
		return uint64(x)
	}
	if s.drawn < rngLen-rngTap {
		s.vec[s.feed] = s.word(s.feed)
		if s.drawn < rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// spill moves the first lazyWin draws' words into the full register:
// the feed words as written, the tap words as seeded.
func (s *lazySource) spill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for c, x := range s.win {
		s.vec[rngLen-rngTap-1-c] = x
		s.vec[rngLen-1-c] = s.word(rngLen - 1 - c)
	}
}

// Int63 is math/rand's rngSource.Int63.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// stream is a rand.Rand and its source in one allocation.
type stream struct {
	rand.Rand
	src lazySource
}

// newRand returns a *rand.Rand drawing exactly what
// rand.New(rand.NewSource(seed)) draws.
func newRand(seed int64) *rand.Rand {
	st := new(stream)
	st.src.Seed(seed)
	st.Rand = *rand.New(&st.src)
	return &st.Rand
}
