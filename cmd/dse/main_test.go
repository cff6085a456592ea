package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastArgs keeps the end-to-end CLI tests quick.
func fastArgs(extra ...string) []string {
	base := []string{
		"-samples", "120",
		"-validation", "20",
		"-tracelen", "15000",
		"-benchmarks", "gzip,mcf",
	}
	return append(base, extra...)
}

func TestRunRequiresCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := run([]string{"-samples", "10", "bogus"}, &out); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-samples", "0", "train"}, &out); err == nil {
		t.Fatal("zero samples accepted")
	}
	if err := run([]string{"-benchmarks", "nope", "train"}, &out); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if err := run([]string{"-workers", "-3", "train"}, &out); err == nil {
		t.Fatal("negative workers accepted")
	}
	if err := run([]string{"-workers", "two", "train"}, &out); err == nil {
		t.Fatal("non-numeric workers accepted")
	}
}

// TestWorkersFlag covers -workers parsing end to end: an explicit worker
// count and the 0 = all-cores default must both train successfully.
func TestWorkersFlag(t *testing.T) {
	for _, workers := range []string{"1", "2", "0"} {
		var out bytes.Buffer
		args := []string{
			"-samples", "60", "-validation", "10", "-tracelen", "8000",
			"-benchmarks", "gzip", "-workers", workers, "train",
		}
		if err := run(args, &out); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		if !strings.Contains(out.String(), "gzip performance model") {
			t.Fatalf("-workers %s produced no model output", workers)
		}
	}
}

func TestRunTrain(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("train"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"gzip performance model", "mcf power model", "R2="} {
		if !strings.Contains(s, want) {
			t.Fatalf("train output missing %q", want)
		}
	}
}

func TestRunValidate(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("validate"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Fatal("validate output missing Figure 1")
	}
}

func TestRunParetoNoSim(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "-delaytargets", "10", "pareto"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 2", "Figure 3", "Table 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("pareto output missing %q", want)
		}
	}
	if strings.Contains(s, "Figure 4") {
		t.Fatal("-nosim should skip Figure 4")
	}
}

func TestRunDepthNoSim(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "depth"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 5a", "Figure 5b", "optimal depth"} {
		if !strings.Contains(s, want) {
			t.Fatalf("depth output missing %q", want)
		}
	}
}

func TestRunHeteroNoSim(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "hetero"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 8", "Figure 9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("hetero output missing %q", want)
		}
	}
}

func TestRunSearch(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("search"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Heuristic search") || !strings.Contains(s, "262500") {
		t.Fatalf("search output incomplete:\n%s", s)
	}
}

func TestSaveAndLoadModels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")

	var out bytes.Buffer
	if err := run(fastArgs("-savemodels", path, "train"), &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("models file not written: %v", err)
	}

	// Reload without training: output must not mention training.
	out.Reset()
	if err := run(fastArgs("-loadmodels", path, "train"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "loaded models") {
		t.Fatal("load path not taken")
	}
	if strings.Contains(s, "trained in") {
		t.Fatal("loading still trained")
	}
	if !strings.Contains(s, "gzip performance model") {
		t.Fatal("loaded models unusable")
	}
}

// TestSaveModelsReplacesAtomically saves over an existing models file.
// The save must replace the file by rename rather than rewrite it in
// place (so a dsed reloading it never reads a torn file), the result must
// load, and no temporary file may be left in the directory.
func TestSaveModelsReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json")
	if err := os.WriteFile(path, []byte("stale models from an earlier run"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	args := func(extra ...string) []string {
		return append([]string{"-samples", "40", "-validation", "5", "-tracelen", "2000", "-benchmarks", "gzip"}, extra...)
	}
	var out bytes.Buffer
	if err := run(args("-savemodels", path, "train"), &out); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("models file was rewritten in place, not replaced by rename")
	}
	out.Reset()
	if err := run(args("-loadmodels", path, "train"), &out); err != nil {
		t.Fatalf("saved models do not load: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "models.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only models.json", names)
	}
}

func TestLoadModelsMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(fastArgs("-loadmodels", "/nonexistent/models.json", "train"), &out); err == nil {
		t.Fatal("missing model file accepted")
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(fastArgs("-nosim", "-csvdir", dir, "report"), &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"figure1.csv", "figure2_gzip.csv", "figure2_mcf.csv",
		"figure3_gzip.csv", "table2.csv", "figure5a.csv", "figure9.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if len(bytes.Split(data, []byte{'\n'})) < 3 {
			t.Fatalf("%s looks empty", name)
		}
	}
	// CSVs are published by rename: no temporary file is left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			t.Fatalf("csv directory holds %s", e.Name())
		}
	}
	// The figure 2 scatter covers the whole exploration space.
	data, err := os.ReadFile(filepath.Join(dir, "figure2_gzip.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte{'\n'})
	if lines < 200000 {
		t.Fatalf("figure2 has only %d rows", lines)
	}
}
