package eval

import (
	"testing"

	"repro/internal/arch"
)

// TestSimulatorFastPathMatchesDisabled pins the backend-level contract:
// with and without DisableFastSim, Evaluate returns bit-identical
// (bips, watts) for the same requests.
func TestSimulatorFastPathMatchesDisabled(t *testing.T) {
	fast := NewSimulator(20000)
	slow := NewSimulator(20000)
	slow.DisableFastSim = true

	space := arch.ExplorationSpace()
	for _, bench := range []string{"gzip", "mcf"} {
		for _, p := range space.SampleUAR(4, 99) {
			cfg := space.Config(p)
			// Three times through the fast backend: the warm-miss run
			// that records the outcome mask and the runs that replay
			// the memoized mask must all match the full-warmup path.
			for pass := 0; pass < 3; pass++ {
				gb, gw, err := fast.Evaluate(cfg, bench)
				if err != nil {
					t.Fatal(err)
				}
				wb, ww, err := slow.Evaluate(cfg, bench)
				if err != nil {
					t.Fatal(err)
				}
				if gb != wb || gw != ww {
					t.Fatalf("%s %v pass %d: fast (%v, %v), disabled (%v, %v)",
						bench, cfg, pass, gb, gw, wb, ww)
				}
			}
		}
	}
	hits, misses := fast.WarmStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("fast backend warm stats hits=%d misses=%d, want both > 0", hits, misses)
	}
	if h, m := slow.WarmStats(); h != 0 || m != 0 {
		t.Fatalf("disabled backend warm stats %d/%d, want untouched", h, m)
	}
}

// TestEngineStatsExposeWarmCounters checks that an engine over the
// simulator backend surfaces its outcome memo counters through Stats
// and differences them through StatsEpoch.
func TestEngineStatsExposeWarmCounters(t *testing.T) {
	s := NewSimulator(20000)
	e := NewEngine(s, Options{Workers: 1, Name: "sim"})
	cfg := arch.Baseline()

	// Same geometry, different widths: distinct requests (no engine cache
	// hits) that share one warm key, so the second is a warm hit.
	a, b := cfg, cfg
	b.Width = cfg.Width * 2
	for _, c := range []arch.Config{a, b} {
		if _, _, err := s.Evaluate(c, "gzip"); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.WarmHits != 1 || st.WarmMisses != 1 {
		t.Fatalf("engine stats warm = %d/%d, want 1/1", st.WarmHits, st.WarmMisses)
	}
	ep := e.StatsEpoch()
	if ep.WarmHits != 1 || ep.WarmMisses != 1 {
		t.Fatalf("first epoch warm = %d/%d, want 1/1", ep.WarmHits, ep.WarmMisses)
	}
	if _, _, err := s.Evaluate(b, "gzip"); err != nil {
		t.Fatal(err)
	}
	ep = e.StatsEpoch()
	if ep.WarmHits != 1 || ep.WarmMisses != 0 {
		t.Fatalf("second epoch warm = %d/%d, want 1/0", ep.WarmHits, ep.WarmMisses)
	}
}
