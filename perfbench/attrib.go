package main

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Time attribution by interval. The program's spans do not form one
// tree: the studies call the engine with context.Background(), and a
// coalesced batch runs detached from the requests it serves, so child
// spans often carry no parent. Attribution therefore looks only at when
// each span was open, never at parent ids.

// benchLayer names the benchmark's own spans (prefix "bench."): time
// covered only by them is time no program span accounts for.
const benchLayer = "bench"

// noLayer owns the instants no span covers.
const noLayer = "(none)"

// layerOf maps a span name to the layer it measures.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "bench."):
		return benchLayer
	case name == "study.depth":
		return "depthstudy"
	case name == "study.pareto":
		return "paretostudy"
	case name == "study.hetero":
		return "heterostudy"
	case strings.HasPrefix(name, "eval.sim."):
		return "eval.sim"
	case strings.HasPrefix(name, "eval.model."):
		return "eval.model"
	case strings.HasPrefix(name, "regression."):
		return "regression"
	case strings.HasPrefix(name, "serve.view."):
		return "serve.view"
	case strings.HasPrefix(name, "serve."):
		return "serve"
	}
	// core.train, core.dataset, core.validate, core.sweep and any span
	// a later change adds are their own layers.
	return name
}

// span is one closed interval [lo, hi) in tracer nanoseconds.
type span struct {
	name  string
	layer string
	lo    int64
	hi    int64
	attrs []obs.Attr
}

func (s span) dur() int64 { return s.hi - s.lo }

// attrInt returns the integer attribute key of s, or 0.
func (s span) attrInt(key string) int64 {
	for _, a := range s.attrs {
		if a.Key == key {
			v, _ := strconv.ParseInt(a.Value, 10, 64)
			return v
		}
	}
	return 0
}

func spansOf(recs []obs.SpanRecord) []span {
	out := make([]span, len(recs))
	for i, r := range recs {
		out[i] = span{name: r.Name, layer: layerOf(r.Name), lo: r.StartNS, hi: r.StartNS + r.DurNS, attrs: r.Attrs}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].lo < out[b].lo })
	return out
}

// within returns the spans that overlap [lo, hi), clipped to it.
func within(spans []span, lo, hi int64) []span {
	var out []span
	for _, s := range spans {
		if s.hi <= lo || s.lo >= hi {
			continue
		}
		if s.lo < lo {
			s.lo = lo
		}
		if s.hi > hi {
			s.hi = hi
		}
		out = append(out, s)
	}
	return out
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// unionLen is the total length covered by at least one span: concurrent
// spans (two workers simulating at once) count their overlap once.
func unionLen(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].lo < s[b].lo })
	var total int64
	lo, hi := s[0].lo, s[0].hi
	for _, x := range s[1:] {
		if x.lo > hi {
			total += hi - lo
			lo, hi = x.lo, x.hi
			continue
		}
		if x.hi > hi {
			hi = x.hi
		}
	}
	return total + hi - lo
}

// sumDur is the plain sum of span durations (overlaps counted twice):
// busy time across workers.
func sumDur(spans []span) int64 {
	var t int64
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

// partition splits the window [lo, hi) among layers: every instant goes
// to the innermost span open at that instant — the one opened last — and
// instants no span covers go to the empty layer. The parts sum to
// hi − lo exactly, so a layer's part is its self time and the parts
// account for the whole window.
func partition(spans []span, lo, hi int64) map[string]int64 {
	type edge struct {
		t    int64
		open bool
		i    int
	}
	in := within(spans, lo, hi)
	edges := make([]edge, 0, 2*len(in))
	for i, s := range in {
		edges = append(edges, edge{s.lo, true, i}, edge{s.hi, false, i})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
	out := make(map[string]int64)
	var active []int
	prev := lo
	// inner reports whether span i nests inside span j: it opened later,
	// or at the same instant and closes sooner. Of two spans over the
	// same interval the program's is the inner one, since the program
	// never calls the benchmark.
	inner := func(i, j int) bool {
		a, b := in[i], in[j]
		if a.lo != b.lo {
			return a.lo > b.lo
		}
		if a.hi != b.hi {
			return a.hi < b.hi
		}
		return a.layer != benchLayer && b.layer == benchLayer
	}
	owner := func() string {
		best := -1
		for _, i := range active {
			if best < 0 || inner(i, best) {
				best = i
			}
		}
		if best < 0 {
			return noLayer
		}
		return in[best].layer
	}
	for _, e := range edges {
		if e.t > prev {
			out[owner()] += e.t - prev
			prev = e.t
		}
		if e.open {
			active = append(active, e.i)
			continue
		}
		for k, i := range active {
			if i == e.i {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
	}
	if hi > prev {
		out[noLayer] += hi - prev
	}
	return out
}

// attribute partitions each window among layers and sums the parts over
// the windows. noLayer and benchLayer together are the time no program
// span accounts for.
func attribute(spans []span, windows []span) map[string]int64 {
	total := map[string]int64{}
	var maxDur int64
	for _, s := range spans {
		if d := s.dur(); d > maxDur {
			maxDur = d
		}
	}
	for _, w := range windows {
		// spans is sorted by start; only those starting after
		// w.lo − maxDur can reach into the window.
		from := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= w.lo-maxDur })
		to := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= w.hi })
		for layer, t := range partition(spans[from:to], w.lo, w.hi) {
			total[layer] += t
		}
	}
	return total
}

// unaccountedPct is the share of attributed time no program span covers.
func unaccountedPct(parts map[string]int64) float64 {
	var total int64
	for _, t := range parts {
		total += t
	}
	return 100 * ratio(float64(parts[noLayer]+parts[benchLayer]), float64(total))
}
