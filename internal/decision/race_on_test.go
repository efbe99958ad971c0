//go:build race

package decision

// Under the race detector every decode runs ~10× slower; the identity
// check keeps full coverage of the generator's shape at a size that
// stays inside `make race`'s budget. The acceptance-scale run happens
// in the regular test build (see race_off_test.go).
const differentialPopulationSize = 10_000

// raceEnabled reports a race-detector build, where sync.Pool drops
// items at random and allocation pins do not hold.
const raceEnabled = true
