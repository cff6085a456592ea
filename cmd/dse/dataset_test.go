package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// datasetArgs is the cheap configuration the dataset CLI tests share:
// two benchmarks and 300 samples, so each benchmark's build runs as two
// checkpoint chunks at the default 250-sample stride, and short traces.
func datasetArgs(extra ...string) []string {
	base := []string{
		"-samples", "300",
		"-validation", "5",
		"-tracelen", "2000",
		"-benchmarks", "gzip,mcf",
	}
	return append(base, extra...)
}

func TestDatasetFlagValidation(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cases := [][]string{
		{"dataset"}, // dataset requires -checkpoint
		{"-resume", "dataset"},
		{"-checkpoint", dir, "-shard", "0/2", "dataset"}, // multi-process flags are gone
		{"-checkpoint", dir, "-distribute", "2", "dataset"},
		{"-checkpoint", dir, "-merge", "2", "dataset"},
	}
	for _, args := range cases {
		if err := run(datasetArgs(args...), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// mustEqualFiles asserts two checkpoint files are byte-identical.
func mustEqualFiles(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatalf("%s and %s differ (%d vs %d bytes)", a, b, len(da), len(db))
	}
}

// phaseStat reads one stat of the named phase from a manifest file.
func phaseStat(t *testing.T, path, phase, stat string) int64 {
	t.Helper()
	man, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range man.Phases {
		if ph.Name == phase {
			return ph.Stats[stat]
		}
	}
	t.Fatalf("manifest %s has no %s phase", path, phase)
	return 0
}

// TestDatasetKillResumeByteIdentical drives the dataset command through
// the CLI: an uninterrupted build, and a build killed by a fatal fault
// at mcf's second checkpoint chunk (core.dataset.chunk) and then run
// again with -resume. The resumed run must simulate only the unfinished
// chunk (its manifest's sim_evaluations), the training checkpoints must
// come out byte-identical to the uninterrupted build's with no other
// file beside them, and a -resume train must fit models from them
// without simulating.
func TestDatasetKillResumeByteIdentical(t *testing.T) {
	if fault.Active() {
		t.Skip("test arms its own fault plan; exact eval counts need a fault-free world")
	}
	golden, dir, manDir := t.TempDir(), t.TempDir(), t.TempDir()
	var out bytes.Buffer

	if err := run(datasetArgs("-checkpoint", golden, "dataset"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "built dataset checkpoints: 300 samples on 2 benchmarks") {
		t.Fatalf("dataset output unexpected:\n%s", out.String())
	}

	// Chunk visits: gzip [0,250), [250,300), then mcf [0,250), [250,300).
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "core.dataset.chunk", Kind: fault.KindFatal, After: 3, Every: 1, Count: 1},
	}})
	err := run(datasetArgs("-checkpoint", dir, "dataset"), &out)
	fault.Enable(prev)
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("killed dataset run returned %v, want wrapped *fault.Injected", err)
	}

	resumeMan := filepath.Join(manDir, "resume.json")
	if err := run(datasetArgs("-checkpoint", dir, "-resume", "-manifest", resumeMan, "dataset"), &out); err != nil {
		t.Fatal(err)
	}
	if got := phaseStat(t, resumeMan, "dataset", "sim_evaluations"); got != 50 {
		t.Fatalf("resumed dataset run simulated %d samples, want the 50 of mcf's last chunk", got)
	}
	want := []string{"train-gzip.ckpt", "train-mcf.ckpt"}
	for _, d := range []string{golden, dir} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, want) {
			t.Fatalf("%s holds %v, want only %v", d, names, want)
		}
	}
	for _, name := range want {
		mustEqualFiles(t, filepath.Join(golden, name), filepath.Join(dir, name))
	}

	// Training from the built checkpoints must not simulate.
	trainMan := filepath.Join(manDir, "train.json")
	if err := run(datasetArgs("-checkpoint", dir, "-resume", "-manifest", trainMan, "train"), &out); err != nil {
		t.Fatal(err)
	}
	if got := phaseStat(t, trainMan, "train", "sim_evaluations"); got != 0 {
		t.Fatalf("resume train simulated %d times", got)
	}
}
