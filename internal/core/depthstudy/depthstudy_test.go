package depthstudy

import (
	"math"
	"reflect"
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
// efficiency included.
func TestSummarizeBlockOrderIndependent(t *testing.T) {
	r := rng.New(5)
	const n = 3000
	block := make([]scored, n)
	for i := range block {
		// Few distinct values, so many designs tie on efficiency,
		// straddling the top-percentile cut among them.
		block[i] = scored{idx: 1000 + i, eff: float64(1 + r.Intn(40))}
	}
	wantBox, wantTop := summarizeBlock(append([]scored(nil), block...), 7.5, 0.95)
	if len(wantTop) != n-int(n*0.95) {
		t.Fatalf("top set has %d designs, want %d", len(wantTop), n-int(n*0.95))
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := make([]scored, n)
		for i, j := range r.Perm(n) {
			shuffled[i] = block[j]
		}
		box, top := summarizeBlock(shuffled, 7.5, 0.95)
		if !reflect.DeepEqual(box, wantBox) {
			t.Fatalf("trial %d: boxplot %+v, want %+v", trial, box, wantBox)
		}
		if !reflect.DeepEqual(top, wantTop) {
			t.Fatalf("trial %d: top set changed with block order", trial)
		}
	}
}
