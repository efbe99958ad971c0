//go:build !race

package gvl

// pinnedSeeds is how many of pinnedHistories TestHistoryPinned checks.
const pinnedSeeds = 3
