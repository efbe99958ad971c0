package capstore

import (
	"errors"
	"slices"
	"testing"
)

// TestSequencer drives the ordered-commit contract offer by offer: what
// each offer is answered, which ranges it releases and in what order,
// and where it leaves the cursor and the buffer.
func TestSequencer(t *testing.T) {
	type offer struct {
		at, n    int64
		records  int
		want     Outcome
		bad      bool    // want an ErrBadRequest error instead
		released []int64 // `at` of each batch handed to commit, in order
		next     int64
		pending  int
	}
	for _, tc := range []struct {
		name   string
		max    int
		offers []offer
	}{
		{"in order", 4, []offer{
			{at: 0, n: 4, records: 4, want: Released, released: []int64{0}, next: 4},
			{at: 4, n: 2, records: 1, want: Released, released: []int64{4}, next: 6},
		}},
		{"out of order drains in range order", 4, []offer{
			{at: 6, n: 2, records: 2, want: Buffered, next: 0, pending: 1},
			{at: 2, n: 4, records: 4, want: Buffered, next: 0, pending: 2},
			{at: 0, n: 2, records: 2, want: Released, released: []int64{0, 2, 6}, next: 8},
		}},
		{"drain stops at the next gap", 4, []offer{
			{at: 2, n: 2, records: 2, want: Buffered, pending: 1},
			{at: 6, n: 2, records: 2, want: Buffered, pending: 2},
			{at: 0, n: 2, records: 2, want: Released, released: []int64{0, 2}, next: 4, pending: 1},
		}},
		{"duplicate of a committed range", 4, []offer{
			{at: 0, n: 4, records: 4, want: Released, released: []int64{0}, next: 4},
			{at: 0, n: 4, records: 4, want: Duplicate, next: 4},
		}},
		{"duplicate of a waiting range", 4, []offer{
			{at: 4, n: 4, records: 4, want: Buffered, pending: 1},
			{at: 4, n: 4, records: 4, want: Duplicate, pending: 1},
		}},
		{"shed at the bound, unblocking batch still admitted", 1, []offer{
			{at: 4, n: 4, records: 4, want: Buffered, pending: 1},
			{at: 8, n: 4, records: 4, want: Shed, pending: 1},
			{at: 0, n: 4, records: 4, want: Released, released: []int64{0, 4}, next: 8},
			{at: 8, n: 4, records: 4, want: Released, released: []int64{8}, next: 12},
		}},
		{"skip marker with zero records", 4, []offer{
			{at: 0, n: 8, records: 0, want: Released, released: []int64{0}, next: 8},
			{at: 12, n: 4, records: 0, want: Buffered, next: 8, pending: 1},
			{at: 8, n: 4, records: 0, want: Released, released: []int64{8, 12}, next: 16},
		}},
		{"at inside an already committed range", 4, []offer{
			{at: 0, n: 8, records: 8, want: Released, released: []int64{0}, next: 8},
			{at: 4, n: 4, records: 4, want: Duplicate, next: 8},
		}},
		{"ranges no coordinator issues", 4, []offer{
			{at: -1, n: 4, bad: true},
			{at: 0, n: 0, bad: true},
			{at: 0, n: 2, records: 3, bad: true},
			{at: 0, n: 2, records: 2, want: Released, released: []int64{0}, next: 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSequencer(tc.max)
			for i, o := range tc.offers {
				var released []int64
				got, err := s.Offer(Batch{Ordered: true, At: o.at, N: o.n, Lines: make([][]byte, o.records)},
					func(b Batch) {
						if s.Next() != b.At {
							t.Errorf("offer %d: batch at=%d committed with the cursor at %d", i, b.At, s.Next())
						}
						released = append(released, b.At)
					})
				if o.bad {
					if !errors.Is(err, ErrBadRequest) {
						t.Fatalf("offer %d (at=%d n=%d records=%d): err = %v, want ErrBadRequest", i, o.at, o.n, o.records, err)
					}
					continue
				}
				if err != nil || got != o.want {
					t.Fatalf("offer %d (at=%d n=%d): outcome %d err %v, want outcome %d", i, o.at, o.n, got, err, o.want)
				}
				if !slices.Equal(released, o.released) {
					t.Errorf("offer %d: released %v, want %v", i, released, o.released)
				}
				if s.Next() != o.next || s.Pending() != o.pending {
					t.Errorf("offer %d: cursor %d pending %d, want %d and %d", i, s.Next(), s.Pending(), o.next, o.pending)
				}
			}
		})
	}
}
