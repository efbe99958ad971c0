package agg

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// Cluster rollups. Every scraped family folds into three derived
// families, named with the colon prefixes the Prometheus exposition
// grammar reserves for recording rules:
//
//	cluster:<name>        sum across all nodes (counters, gauges) or
//	                      the quantile-mergeable bucket union
//	                      (histograms), per label set
//	cluster:<name>:max    gauges additionally keep the per-node max —
//	                      a summed queue depth hides one saturated node
//	role:<name>           the same fold restricted to nodes sharing a
//	                      role, with a role label
//	node:<name>           the raw per-node children, with node and role
//	                      labels — the drill-down surface
//
// Vecs with disjoint label children across nodes merge by label set:
// a child seen on only one node contributes itself, unchanged, to the
// cluster fold.

// labelKey canonicalizes a label set for grouping.
func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		parts = append(parts, k+"\x00"+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// foldChild accumulates one scraped metric into a group keyed by label
// set.
type foldChild struct {
	labels map[string]string
	sum    float64
	max    float64
	n      int
	hist   obs.HistogramSnapshot
}

type fold struct {
	kind     string
	help     string
	children map[string]*foldChild
}

func (f *fold) add(m obs.ExpositionMetric, extra map[string]string) {
	labels := make(map[string]string, len(m.Labels)+len(extra))
	for k, v := range m.Labels {
		labels[k] = v
	}
	for k, v := range extra {
		labels[k] = v
	}
	key := labelKey(labels)
	c := f.children[key]
	if c == nil {
		c = &foldChild{labels: labels}
		f.children[key] = c
	}
	if m.Histogram != nil {
		c.hist = obs.MergeHistogramSnapshots(c.hist, *m.Histogram)
	}
	if m.Value != nil {
		c.sum += *m.Value
		if c.n == 0 || *m.Value > c.max {
			c.max = *m.Value
		}
	}
	c.n++
}

func (f *fold) family(name string, value func(*foldChild) float64) obs.ExpositionFamily {
	rf := obs.ExpositionFamily{Name: name, Kind: f.kind, Help: f.help}
	for _, key := range sortedKeys(f.children) {
		c := f.children[key]
		m := obs.ExpositionMetric{}
		if len(c.labels) > 0 {
			m.Labels = c.labels
		}
		if f.kind == "histogram" {
			h := c.hist
			m.Histogram = &h
		} else {
			v := value(c)
			m.Value = &v
		}
		rf.Metrics = append(rf.Metrics, m)
	}
	return rf
}

// Rollup folds the latest scrape of every node into the derived
// cluster families, sorted by name.
func (a *Aggregator) Rollup() []obs.ExpositionFamily {
	nodes := a.snapshotNodes()

	cluster := map[string]*fold{}
	role := map[string]*fold{}
	node := map[string]*fold{}
	ensure := func(m map[string]*fold, name, kind, help string) *fold {
		f := m[name]
		if f == nil {
			f = &fold{kind: kind, help: help, children: map[string]*foldChild{}}
			m[name] = f
		}
		return f
	}
	for _, ns := range nodes {
		for _, fam := range ns.families {
			for _, metric := range fam.Metrics {
				ensure(cluster, fam.Name, fam.Kind, fam.Help).add(metric, nil)
				ensure(role, fam.Name, fam.Kind, fam.Help).add(metric,
					map[string]string{"role": ns.target.Role})
				ensure(node, fam.Name, fam.Kind, fam.Help).add(metric,
					map[string]string{"node": ns.target.Name, "role": ns.target.Role})
			}
		}
	}

	sum := func(c *foldChild) float64 { return c.sum }
	max := func(c *foldChild) float64 { return c.max }
	var out []obs.ExpositionFamily
	for _, name := range sortedKeys(cluster) {
		f := cluster[name]
		out = append(out, f.family("cluster:"+name, sum))
		if f.kind == "gauge" {
			mf := f.family("cluster:"+name+":max", max)
			mf.Kind = "gauge"
			mf.Help = "Per-node maximum of " + name + "."
			out = append(out, mf)
		}
	}
	for _, name := range sortedKeys(role) {
		out = append(out, role[name].family("role:"+name, sum))
	}
	for _, name := range sortedKeys(node) {
		out = append(out, node[name].family("node:"+name, sum))
	}
	return out
}
