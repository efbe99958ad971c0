//go:build !race

package decision

// differentialPopulationSize is the full acceptance-scale population
// for the compiled-vs-naive identity check.
const differentialPopulationSize = 100_000

// raceEnabled reports a race-detector build.
const raceEnabled = false
