//go:build !race

package capstore

// See race_on_test.go.
const raceEnabled = false
