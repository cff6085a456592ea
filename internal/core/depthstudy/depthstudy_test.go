package depthstudy

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

var shared *core.Explorer

func testExplorer(t *testing.T) *core.Explorer {
	t.Helper()
	if shared != nil {
		return shared
	}
	opts := core.DefaultOptions()
	opts.TrainSamples = 180
	opts.TraceLen = 20000
	opts.Benchmarks = []string{"gzip", "mesa"}
	e, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	shared = e
	return e
}

func TestRunStructure(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{})
	if err != nil {
		t.Fatal(err)
	}
	depths := e.StudySpace.DepthLevels()
	if len(res.Rows) != len(depths) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(depths))
	}
	for i, row := range res.Rows {
		if row.DepthFO4 != depths[i] {
			t.Fatalf("row %d depth = %d, want %d", i, row.DepthFO4, depths[i])
		}
		if row.EffBox.N != 37500 {
			t.Fatalf("boxplot population = %d, want 37500", row.EffBox.N)
		}
		if row.OriginalModelEff <= 0 || row.BoundModelEff <= 0 {
			t.Fatal("non-positive efficiency")
		}
		if row.FracBeatsBaseline < 0 || row.FracBeatsBaseline > 1 {
			t.Fatalf("FracBeatsBaseline = %v", row.FracBeatsBaseline)
		}
	}
}

func TestOriginalOptimumInterior(t *testing.T) {
	// The paper's central depth finding: the bips^3/w-optimal depth is
	// interior (18 FO4 there), a plateau rather than an endpoint.
	e := testExplorer(t)
	res, err := Run(e, "mesa", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalBestDepth == 12 || res.OriginalBestDepth == 30 {
		t.Fatalf("optimal depth %d is at the boundary", res.OriginalBestDepth)
	}
}

func TestBoundBeatsOriginal(t *testing.T) {
	// The enhanced analysis' per-depth best design must be at least as
	// efficient as the constrained original design at that depth: the
	// original configuration is inside the searched set.
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Allow a sliver of slack: the baseline's depth 19 is off-grid,
		// but per-depth rows share the same grid so Bound >= Original
		// should hold outright.
		if row.BoundModelEff < row.OriginalModelEff*0.999 {
			t.Fatalf("at %d FO4 bound eff %v below original %v",
				row.DepthFO4, row.BoundModelEff, row.OriginalModelEff)
		}
	}
}

func TestDL1HistogramNormalized(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "mesa", Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := e.StudySpace.DL1Levels()
	for _, row := range res.Rows {
		var sum float64
		for kb, frac := range row.DL1Histogram {
			if frac < 0 || frac > 1 {
				t.Fatalf("fraction %v out of range", frac)
			}
			found := false
			for _, s := range sizes {
				if s == kb {
					found = true
				}
			}
			if !found {
				t.Fatalf("histogram key %d KB not a D-L1 level", kb)
			}
			sum += frac
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("histogram sums to %v", sum)
		}
	}
}

func TestValidationPopulatesSimulatedRows(t *testing.T) {
	e := testExplorer(t)
	res, err := Run(e, "gzip", Options{SimulateValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.OriginalSimEff <= 0 || row.BoundSimEff <= 0 {
			t.Fatalf("missing simulated efficiency at %d FO4", row.DepthFO4)
		}
		if row.OriginalSimBIPS <= 0 || row.BoundSimWatts <= 0 {
			t.Fatal("missing simulated components")
		}
	}
}

func TestTopPercentileValidation(t *testing.T) {
	e := testExplorer(t)
	if _, err := Run(e, "gzip", Options{TopPercentile: 1.5}); err == nil {
		t.Fatal("TopPercentile > 1 accepted")
	}
	if _, err := Run(e, "gzip", Options{TopPercentile: -0.1}); err == nil {
		t.Fatal("negative TopPercentile accepted")
	}
}

func TestAverageAggregation(t *testing.T) {
	e := testExplorer(t)
	results, err := RunSuite(e, Options{SimulateValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Average(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(avg.Depths) != 7 {
		t.Fatalf("depth axis = %v", avg.Depths)
	}
	// The original curve is normalized: its max must be ~1.
	maxOrig := 0.0
	for _, v := range avg.OriginalRel {
		if v <= 0 || v > 1+1e-9 {
			t.Fatalf("OriginalRel value %v out of (0,1]", v)
		}
		if v > maxOrig {
			maxOrig = v
		}
	}
	if math.Abs(maxOrig-1) > 1e-9 {
		t.Fatalf("OriginalRel max = %v, want 1", maxOrig)
	}
	// Simulated curves present and normalized.
	maxSim := 0.0
	for _, v := range avg.OriginalSimRel {
		if v > maxSim {
			maxSim = v
		}
	}
	if math.Abs(maxSim-1) > 1e-9 {
		t.Fatalf("OriginalSimRel max = %v, want 1", maxSim)
	}
	// Best depths must be levels of the axis.
	onAxis := func(d int) bool {
		for _, v := range avg.Depths {
			if v == d {
				return true
			}
		}
		return false
	}
	if !onAxis(avg.BestOriginalDepth) || !onAxis(avg.BestBoundDepth) {
		t.Fatalf("best depths %d/%d not on axis", avg.BestOriginalDepth, avg.BestBoundDepth)
	}
}

func TestAverageEmpty(t *testing.T) {
	if _, err := Average(nil); err == nil {
		t.Fatal("Average of nothing succeeded")
	}
}

func TestModelFindsSimulatorOptimumWithin3FO4(t *testing.T) {
	// Figure 6's headline: "the models correctly identify the most
	// efficient depths to within 3 FO4".
	e := testExplorer(t)
	results, err := RunSuite(e, Options{SimulateValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Average(results)
	if err != nil {
		t.Fatal(err)
	}
	simBest, simVal := 0, -1.0
	for i, v := range avg.OriginalSimRel {
		if v > simVal {
			simVal, simBest = v, avg.Depths[i]
		}
	}
	if d := avg.BestOriginalDepth - simBest; d < -3 || d > 3 {
		t.Fatalf("model optimum %d vs simulated %d differ by more than 3 FO4",
			avg.BestOriginalDepth, simBest)
	}
}

// TestSummarizeBlockOrderIndependent pins that a depth block's summary —
// its boxplot and its top-percentile design set — depends on the block's
// contents alone: shuffling the designs leaves it unchanged, ties in
// efficiency included, down to a block where every design ties and a
// block of one design.
func TestSummarizeBlockOrderIndependent(t *testing.T) {
	r := rng.New(5)
	for _, tc := range []struct {
		name string
		n    int
		eff  func() float64
	}{
		// Few distinct values, so many designs tie on efficiency,
		// straddling the top-percentile cut among them.
		{"40 values", 3000, func() float64 { return float64(1 + r.Intn(40)) }},
		{"two values", 3000, func() float64 { return float64(1 + r.Intn(2)) }},
		{"all tied", 3000, func() float64 { return 6 }},
		{"one design", 1, func() float64 { return 6 }},
	} {
		n := tc.n
		block := make([]scored, n)
		for i := range block {
			block[i] = scored{idx: 1000 + i, eff: tc.eff()}
		}
		tmp := make([]scored, n)
		wantBox, wantTop := summarizeBlock(append([]scored(nil), block...), tmp, 7.5, 0.95)
		if len(wantTop) != n-int(float64(n)*0.95) {
			t.Fatalf("%s: top set has %d designs, want %d", tc.name, len(wantTop), n-int(float64(n)*0.95))
		}
		if wantBox.N != n {
			t.Fatalf("%s: boxplot of %d designs, want %d", tc.name, wantBox.N, n)
		}
		for trial := 0; trial < 5; trial++ {
			shuffled := make([]scored, n)
			for i, j := range r.Perm(n) {
				shuffled[i] = block[j]
			}
			box, top := summarizeBlock(shuffled, tmp, 7.5, 0.95)
			if !reflect.DeepEqual(box, wantBox) {
				t.Fatalf("%s trial %d: boxplot %+v, want %+v", tc.name, trial, box, wantBox)
			}
			if !reflect.DeepEqual(top, wantTop) {
				t.Fatalf("%s trial %d: top set changed with block order", tc.name, trial)
			}
		}
	}
}

// TestRadixSortMatchesComparator pins the radix sort to a comparator
// sort on (eff, idx) for blocks of heavy ties — every design equal, two
// values, a tie on every efficiency bit but the lowest — plus a spread
// of magnitudes, a one-element block, and an empty one.
func TestRadixSortMatchesComparator(t *testing.T) {
	r := rng.New(11)
	tied, next := 1.5, math.Nextafter(1.5, 2)
	for _, tc := range []struct {
		name string
		gen  func(i int) scored
	}{
		{"all equal", func(i int) scored { return scored{idx: 5000 - i, eff: 3.25} }},
		{"two values", func(i int) scored { return scored{idx: 70000 + r.Intn(1<<20), eff: float64(1 + r.Intn(2))} }},
		{"last bit", func(i int) scored { return scored{idx: i, eff: []float64{tied, next}[r.Intn(2)]} }},
		{"magnitudes", func(i int) scored { return scored{idx: r.Intn(262500), eff: math.Ldexp(1+r.Float64(), r.Intn(80)-40)} }},
		{"wide idx", func(i int) scored { return scored{idx: r.Intn(1 << 30), eff: float64(1 + r.Intn(3))} }},
	} {
		for _, n := range []int{0, 1, 2, 3000} {
			block := make([]scored, n)
			for i := range block {
				block[i] = tc.gen(i)
			}
			want := slices.Clone(block)
			slices.SortStableFunc(want, func(a, b scored) int {
				if c := cmp.Compare(a.eff, b.eff); c != 0 {
					return c
				}
				return cmp.Compare(a.idx, b.idx)
			})
			radixSort(block, make([]scored, n))
			if !slices.Equal(block, want) {
				t.Fatalf("%s, n=%d: radix order differs from the comparator's", tc.name, n)
			}
		}
	}
}

// TestScoreBlockSkipsUnusablePredictions pins that non-positive and
// non-finite predictions are left out of a depth block: a NaN passes a
// sign check and would otherwise poison the boxplot's mean.
func TestScoreBlockSkipsUnusablePredictions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	preds := []core.Prediction{
		{BIPS: 1, Watts: 1},          // 0: outside the block
		{BIPS: 2, Watts: 4},          // 1: eff 2
		{BIPS: nan, Watts: 4},        // 2
		{BIPS: 2, Watts: nan},        // 3
		{BIPS: inf, Watts: 4},        // 4
		{BIPS: 0, Watts: 4},          // 5
		{BIPS: 2, Watts: -1},         // 6
		{BIPS: 3, Watts: 9},          // 7: eff 3
		{BIPS: 1e200, Watts: 1e-200}, // 8: eff overflows to +Inf
	}
	all, bound, beats := scoreBlock(nil, preds, 1, len(preds), 2.5)
	want := []scored{{idx: 1, eff: 2}, {idx: 7, eff: 3}}
	if !slices.Equal(all, want) {
		t.Fatalf("scored %+v, want %+v", all, want)
	}
	if bound != want[1] || beats != 1 {
		t.Fatalf("bound %+v beats %d, want %+v and 1", bound, beats, want[1])
	}
	box, _ := summarizeBlock(all, make([]scored, len(all)), 1, 0.95)
	if math.IsNaN(box.Mean) || box.Mean != 2.5 {
		t.Fatalf("boxplot mean %v, want 2.5", box.Mean)
	}
	if _, bound, _ := scoreBlock(nil, preds, 2, 7, 1); bound.idx != -1 {
		t.Fatalf("block of unusable predictions has bound %+v, want none", bound)
	}
}

// BenchmarkSummarizeBlock measures one depth block's summary at the
// design space's block size.
func BenchmarkSummarizeBlock(b *testing.B) {
	r := rng.New(3)
	const n = 37500
	block := make([]scored, n)
	for i := range block {
		block[i] = scored{idx: 75000 + i, eff: math.Ldexp(1+r.Float64(), r.Intn(4))}
	}
	work, tmp := make([]scored, n), make([]scored, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, block)
		summarizeBlock(work, tmp, 1, 0.95)
	}
}
