//go:build race

package gvl

// Under the race detector encoding a 47 MB history runs ~10× slower;
// `make race` checks the first pinned seed, and the regular test build
// all of them (see race_off_test.go).
const pinnedSeeds = 1
