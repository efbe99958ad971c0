package main

import (
	"fmt"
	"io"

	"repro/internal/capstore"
	"repro/internal/ring"
)

// ringSource is an analytics.Source over a replicated store: each
// shard is read from the first placed node that answers. capring
// serves neither /stats nor /segment, so analyzed cannot follow a ring
// through its front door today; the adapter goes to the nodes.
type ringSource struct {
	ring   *ring.Ring
	shards int
	nodes  map[string]*capstore.Client
}

func (s ringSource) Counts() ([]int, error) {
	stats := map[string]capstore.Stats{}
	out := make([]int, s.shards)
shard:
	for sh := range out {
		var err error
		for _, name := range s.ring.PlaceSegment(sh) {
			st, ok := stats[name]
			if !ok {
				if st, err = s.nodes[name].Stats(); err != nil {
					continue
				}
				stats[name] = st
			}
			out[sh] = st.Shards[sh].Records
			continue shard
		}
		return nil, fmt.Errorf("ring source: shard %d unreadable on every replica: %w", sh, err)
	}
	return out, nil
}

func (s ringSource) Stream(shard, from int) (rc io.ReadCloser, err error) {
	for _, name := range s.ring.PlaceSegment(shard) {
		if rc, err = s.nodes[name].SegmentReader(shard, from); err == nil {
			return rc, nil
		}
	}
	return nil, err
}
