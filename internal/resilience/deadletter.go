package resilience

import (
	"sync"

	"repro/internal/simtime"
)

// Dead-letter reasons. Every share that leaves the pipeline without a
// recorded capture carries one, so operators can audit exactly what was
// lost and why — the paper's Section 3.5 does this accounting by hand
// for its toplist ("315 unreachable, 4 invalid, 70 HTTP error …").
const (
	ReasonBudgetExhausted = "budget-exhausted" // retry budget spent on transient failures
	ReasonCancelled       = "cancelled"        // shutdown landed mid-wait or mid-backoff
	ReasonShutdownDrop    = "shutdown-drop"    // queued but never dequeued before Run returned
)

// DeadEntry is one share that exhausted its chances.
type DeadEntry struct {
	URL      string
	Domain   string
	Day      simtime.Day
	Attempts int    // loads performed before giving up
	Reason   string // one of the Reason* constants
	LastErr  string // last capture error observed, if any
}

// MemDeadLetter retains dead-lettered shares in memory. It is safe for
// concurrent use.
type MemDeadLetter struct {
	mu      sync.Mutex
	entries []DeadEntry
}

// NewMemDeadLetter returns an empty sink.
func NewMemDeadLetter() *MemDeadLetter { return &MemDeadLetter{} }

// Add records one dead-lettered share.
func (m *MemDeadLetter) Add(e DeadEntry) {
	m.mu.Lock()
	m.entries = append(m.entries, e)
	m.mu.Unlock()
}

// Len returns the number of entries.
func (m *MemDeadLetter) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Entries returns a snapshot copy.
func (m *MemDeadLetter) Entries() []DeadEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]DeadEntry(nil), m.entries...)
}

// ByReason tallies entries per reason.
func (m *MemDeadLetter) ByReason() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int)
	for _, e := range m.entries {
		out[e.Reason]++
	}
	return out
}
