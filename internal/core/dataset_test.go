package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fault"
)

// mustEqualFiles asserts two checkpoint files are byte-identical.
func mustEqualFiles(t *testing.T, golden, got string) {
	t.Helper()
	g, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	m, err := os.ReadFile(got)
	if err != nil {
		t.Fatalf("got: %v", err)
	}
	if !bytes.Equal(g, m) {
		t.Fatalf("%s (%d bytes) differs from %s (%d bytes)", got, len(m), golden, len(g))
	}
}

// mustNew builds an explorer or fails the test.
func mustNew(t *testing.T, opts Options) *Explorer {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

// TestBuildDatasetMatchesTrain is the dataset acceptance test: a
// 200-config dataset over two benchmarks built by BuildDataset must
// write training checkpoints byte-identical to the ones Train writes,
// and nothing else; a resumed Train must then fit identical models off
// those files without a single simulation.
func TestBuildDatasetMatchesTrain(t *testing.T) {
	if fault.Active() {
		t.Skip("exact eval counts need a fault-free world")
	}
	dsOpts := func(dir string) Options {
		o := DefaultOptions()
		o.TrainSamples = 200
		o.ValidationSamples = 5
		o.TraceLen = 2000
		o.Benchmarks = []string{"gzip", "mcf"}
		o.Workers = 2
		o.CheckpointEvery = 64 // chunks do not divide the sample count
		o.CheckpointDir = dir
		return o
	}

	goldenDir := t.TempDir()
	golden := mustNew(t, dsOpts(goldenDir))
	if err := golden.Train(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	built := mustNew(t, dsOpts(dir))
	if err := built.BuildDataset(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := built.SimStats().Evaluations; got != 400 {
		t.Errorf("BuildDataset simulated %d samples, want 400", got)
	}
	if built.Trained() {
		t.Error("BuildDataset fitted models")
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"train-gzip.ckpt", "train-mcf.ckpt"}) {
		t.Fatalf("BuildDataset wrote %v, want only the two training checkpoints", names)
	}
	for _, bench := range []string{"gzip", "mcf"} {
		mustEqualFiles(t,
			filepath.Join(goldenDir, "train-"+bench+".ckpt"),
			filepath.Join(dir, "train-"+bench+".ckpt"))
	}

	// The checkpoints are a complete dataset: training resumes to
	// identical models with zero simulations.
	opts := dsOpts(dir)
	opts.Resume = true
	trained := mustNew(t, opts)
	if err := trained.Train(); err != nil {
		t.Fatal(err)
	}
	if got := trained.SimStats().Evaluations; got != 0 {
		t.Errorf("Train after BuildDataset simulated %d samples, want 0", got)
	}
	for _, bench := range []string{"gzip", "mcf"} {
		_, gc := golden.perf[bench].Coefficients()
		_, rc := trained.perf[bench].Coefficients()
		if !slices.Equal(gc, rc) {
			t.Fatalf("%s perf coefficients differ: golden %v, resumed %v", bench, gc, rc)
		}
	}

	if err := mustNew(t, dsOpts("")).BuildDataset(context.Background()); err == nil {
		t.Error("BuildDataset without CheckpointDir succeeded")
	}
}

// killTestOptions gives each of two benchmarks eight checkpoint chunks
// of five samples, so a kill can land in the second benchmark with one
// benchmark finished behind it and chunks ahead of it.
func killTestOptions(dir string, resume bool) Options {
	o := ckptTestOptions()
	o.Benchmarks = []string{"gzip", "mcf"}
	o.CheckpointEvery = 5
	o.CheckpointDir = dir
	o.Resume = resume
	return o
}

// TestDatasetKillResumesMidBuild is the mid-build crash acceptance
// test: a dataset build killed by a deterministic fault at mcf's third
// checkpoint chunk resumes from the checkpoints — re-simulating only
// the samples after mcf's last checkpoint, never the finished gzip
// dataset — and ends byte-identical to an uninterrupted build.
func TestDatasetKillResumesMidBuild(t *testing.T) {
	if fault.Active() {
		t.Skip("test arms its own fault plan; exact eval counts need a fault-free world")
	}
	goldenDir := t.TempDir()
	if err := mustNew(t, killTestOptions(goldenDir, false)).BuildDataset(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Chunk visits 1-8 are gzip's, 9-16 mcf's: the 11th is mcf [10,15).
	killed := mustNew(t, killTestOptions(dir, false))
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "core.dataset.chunk", Kind: fault.KindFatal, After: 10, Every: 1, Count: 1},
	}})
	err := killed.BuildDataset(context.Background())
	fault.Enable(prev)
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("killed BuildDataset returned %v, want wrapped *fault.Injected", err)
	}
	if got := killed.SimStats().Evaluations; got != 50 {
		t.Fatalf("killed build simulated %d samples, want 50 before dying", got)
	}
	mustEqualFiles(t, filepath.Join(goldenDir, "train-gzip.ckpt"), filepath.Join(dir, "train-gzip.ckpt"))

	// A fresh explorer (a new process) resumes: only mcf's remaining 30
	// samples are simulated.
	resumed := mustNew(t, killTestOptions(dir, true))
	if err := resumed.BuildDataset(context.Background()); err != nil {
		t.Fatalf("resumed BuildDataset: %v", err)
	}
	if got := resumed.SimStats().Evaluations; got != 30 {
		t.Fatalf("resumed build simulated %d samples, want 30", got)
	}
	for _, bench := range []string{"gzip", "mcf"} {
		mustEqualFiles(t,
			filepath.Join(goldenDir, "train-"+bench+".ckpt"),
			filepath.Join(dir, "train-"+bench+".ckpt"))
	}
}
