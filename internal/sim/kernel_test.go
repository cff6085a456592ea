package sim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// TestReplaySeedEquivalence pins the replay kernel to the seed simulator
// across the design space: for every benchmark, and for the self-reading
// trace whose fetches miss the L2, sampled exploration configurations
// plus the in-order baseline run through one Runner's RunInto, and each
// result must equal sim.Run's bit for bit.
func TestReplaySeedEquivalence(t *testing.T) {
	space := arch.ExplorationSpace()
	var cfgs []arch.Config
	for _, p := range space.SampleUAR(60, 2007) {
		cfgs = append(cfgs, space.Config(p))
	}
	inOrder := arch.Baseline()
	inOrder.InOrder = true
	cfgs = append(cfgs, inOrder)

	trs := []*trace.Trace{selfReadingTrace()}
	for _, bench := range trace.Benchmarks() {
		trs = append(trs, testTrace(t, bench))
	}
	if len(trs) != 10 {
		t.Fatalf("%d benchmarks, want the paper's 9", len(trs)-1)
	}

	r := NewRunner()
	var got Result
	for _, tr := range trs {
		bench := tr.Name
		for _, cfg := range cfgs {
			want, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.RunInto(&got, cfg, tr); err != nil {
				t.Fatal(err)
			}
			if got != *want {
				t.Fatalf("%s %+v: replay diverged from the seed simulator\n got %+v\nwant %+v",
					bench, cfg, got, *want)
			}
		}
	}
}

// TestMaskInvariants checks the outcome-mask properties timedReplay's
// activity counts rely on, for every cache geometry of the design space
// and every benchmark: an L2 miss bit implies its L1 miss bit, data-side
// bits mark only loads and stores, the mispredict bit marks only
// branches, and no bit above it is ever set. The benchmarks' code stays
// L2-resident, so the self-reading trace supplies the instruction-side
// L2 misses.
func TestMaskInvariants(t *testing.T) {
	trs := []*trace.Trace{selfReadingTrace()}
	for _, bench := range trace.Benchmarks() {
		trs = append(trs, testTrace(t, bench))
	}
	r := NewRunner()
	var s Scratch
	var seen byte
	for _, tr := range trs {
		bench := tr.Name
		warm := warmupLen(tr.Len())
		mask := make([]byte, tr.Len()-warm)
		for _, cfg := range cacheGeometries() {
			p, err := Derive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.buildMask(&s, p, tr, mask); err != nil {
				t.Fatal(err)
			}
			for j, m := range mask {
				kind := tr.Insts[warm+j].Kind
				mem := kind == trace.OpLoad || kind == trace.OpStore
				switch {
				case m&mIL2Miss != 0 && m&mIL1Miss == 0:
					t.Fatalf("%s %+v inst %d: IL2 miss without IL1 miss (mask %#x)", bench, cfg, warm+j, m)
				case m&mDL2Miss != 0 && m&mDL1Miss == 0:
					t.Fatalf("%s %+v inst %d: DL2 miss without DL1 miss (mask %#x)", bench, cfg, warm+j, m)
				case m&(mDL1Miss|mDL2Miss) != 0 && !mem:
					t.Fatalf("%s %+v inst %d: data-side bits on a %v (mask %#x)", bench, cfg, warm+j, kind, m)
				case m&mMispredict != 0 && kind != trace.OpBranch:
					t.Fatalf("%s %+v inst %d: mispredict on a %v (mask %#x)", bench, cfg, warm+j, kind, m)
				case m >= mMispredict<<1:
					t.Fatalf("%s %+v inst %d: unknown bits (mask %#x)", bench, cfg, warm+j, m)
				}
				seen |= m
			}
		}
	}
	// Every outcome occurs somewhere, so no check above is vacuous.
	if want := mIL1Miss | mIL2Miss | mDL1Miss | mDL2Miss | mMispredict; seen != want {
		t.Fatalf("outcomes seen %#x, want all of %#x", seen, want)
	}
}
