//go:build race

package capstore

// Under the race detector sync.Pool drops a share of what is put back
// at random, so the tests that pin pooled buffers skip.
const raceEnabled = true
