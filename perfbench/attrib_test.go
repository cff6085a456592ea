package main

import "testing"

func sp(name string, lo, hi int64) span {
	return span{name: name, layer: layerOf(name), lo: lo, hi: hi}
}

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	spans := []span{sp("eval.sim.invoke", 0, 10), sp("eval.sim.invoke", 5, 15), sp("eval.sim.invoke", 20, 25)}
	if got := unionLen(spans); got != 20 {
		t.Errorf("unionLen = %d, want 20", got)
	}
	if got := sumDur(spans); got != 25 {
		t.Errorf("sumDur = %d, want 25", got)
	}
}

// The depth study calls the engine with context.Background(), so its
// engine spans have no parent: attribution must go by time alone.
func TestPartitionAttributesByIntervalNotParent(t *testing.T) {
	spans := []span{
		sp("bench.depth", 0, 100),
		sp("study.depth", 5, 95),
		sp("eval.sim.batch", 20, 50),    // parentless, inside the study
		sp("eval.sim.invoke", 22, 40),   // two workers at once
		sp("eval.sim.invoke", 30, 48),   //
		sp("eval.model.batch", 60, 70),  // parentless too
		sp("eval.model.invoke", 61, 69), //
	}
	got := partition(spans, 0, 100)
	want := map[string]int64{
		benchLayer:   10, // [0,5) and [95,100)
		"depthstudy": 50, // 90 of study.depth minus 30 sim and 10 model
		"eval.sim":   30,
		"eval.model": 10,
	}
	if len(got) != len(want) {
		t.Fatalf("partition = %v, want %v", got, want)
	}
	var total int64
	for k, v := range want {
		if got[k] != v {
			t.Errorf("partition[%q] = %d, want %d", k, got[k], v)
		}
		total += got[k]
	}
	if total != 100 {
		t.Errorf("parts sum to %d, want the whole window", total)
	}
}

func TestPartitionClipsToWindowAndCountsGaps(t *testing.T) {
	spans := []span{sp("core.sweep", -10, 10), sp("core.sweep", 30, 60)}
	got := partition(spans, 0, 40)
	if got["core.sweep"] != 20 || got[noLayer] != 20 {
		t.Errorf("partition = %v, want 20 in core.sweep and 20 uncovered", got)
	}
}

func TestAttributeSumsWindowsAndUnaccounted(t *testing.T) {
	spans := spansOf(nil)
	spans = append(spans,
		sp("bench.handler", 0, 10), sp("serve.predict", 1, 9), sp("eval.model.batch", 4, 6),
		sp("bench.handler", 20, 30), sp("serve.predict", 20, 30),
	)
	windows := named(spans, "bench.handler")
	parts := attribute(spans, windows)
	if parts[benchLayer] != 2 || parts["serve"] != 16 || parts["eval.model"] != 2 {
		t.Errorf("attribute = %v", parts)
	}
	if got := unaccountedPct(parts); got != 10 {
		t.Errorf("unaccountedPct = %v, want 10", got)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"bench.report":     benchLayer,
		"study.depth":      "depthstudy",
		"study.pareto":     "paretostudy",
		"eval.sim.invoke":  "eval.sim",
		"regression.fit":   "regression",
		"serve.view.build": "serve.view",
		"serve.predict":    "serve",
		"core.sweep":       "core.sweep",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
