package repro

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
)

// artifactExts are the file extensions that mark an inline code span in
// the docs as a cited artifact rather than an identifier or a command.
var artifactExts = []string{".json", ".jsonl", ".txt", ".csv", ".ckpt", ".md", ".go", ".sh", ".yml"}

// repoDirs are the top-level directories whose paths the docs cite.
var repoDirs = []string{"internal/", "cmd/", "examples/", "results/", "docs/", "perfbench/"}

var (
	fencedRE     = regexp.MustCompile("(?s)```.*?```")
	inlineCodeRE = regexp.MustCompile("`([^`\n]+)`")
	lineRefRE    = regexp.MustCompile(`:\d+(-\d+)?$`)
	placeholdRE  = regexp.MustCompile(`<[^>]*>`)
	bracesRE     = regexp.MustCompile(`\{([^{}]*)\}`)
)

// citedArtifacts returns the artifact paths a markdown document cites
// in inline code: single tokens that name a file with an artifact
// extension or a path under one of the repository's top-level
// directories. Fenced blocks are skipped — their paths are the outputs
// of the commands they show, not files the repository ships.
func citedArtifacts(markdown string) []string {
	var out []string
	for _, m := range inlineCodeRE.FindAllStringSubmatch(fencedRE.ReplaceAllString(markdown, ""), -1) {
		tok := lineRefRE.ReplaceAllString(m[1], "")
		if strings.ContainsAny(tok, " \t") || strings.Contains(tok, "://") {
			continue
		}
		cited := false
		for _, ext := range artifactExts {
			cited = cited || strings.HasSuffix(tok, ext)
		}
		for _, dir := range repoDirs {
			cited = cited || strings.HasPrefix(tok, dir)
		}
		if cited {
			out = append(out, tok)
		}
	}
	return out
}

// expandBraces expands shell-style {a,b} alternatives.
func expandBraces(p string) []string {
	loc := bracesRE.FindStringSubmatchIndex(p)
	if loc == nil {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(p[:loc[0]]+alt+p[loc[1]:])...)
	}
	return out
}

// checkpointArtifacts runs a tiny dataset build and returns the names of
// the files it leaves in the checkpoint directory: the runtime artifacts
// docs may cite by name.
func checkpointArtifacts(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	opts := core.DefaultOptions()
	opts.TrainSamples = 4
	opts.ValidationSamples = 2
	opts.TraceLen = 2000
	opts.Benchmarks = []string{"gzip", "mcf"}
	opts.CheckpointDir = dir
	e, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.BuildDataset(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	return names
}

// runtimeArtifact reports whether a cited name is a file the program
// writes into its checkpoint directory rather than one the repository
// ships: checkpoints and any name with a <placeholder>.
func runtimeArtifact(ref string) bool {
	return strings.HasSuffix(ref, ".ckpt") || placeholdRE.MatchString(ref)
}

// matchesRuntime reports whether some produced file name matches the
// cited pattern, with <placeholders> and * standing for any name part.
func matchesRuntime(ref string, produced []string) bool {
	parts := placeholdRE.Split(ref, -1)
	for i, p := range parts {
		parts[i] = strings.ReplaceAll(regexp.QuoteMeta(p), `\*`, `[^/]*`)
	}
	re := regexp.MustCompile("^" + strings.Join(parts, `[^/]+`) + "$")
	for _, name := range produced {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// existsInRepo reports whether a cited repository path exists. Globs
// and {a,b} alternatives must each match something; a bare file name
// may live anywhere in the tree.
func existsInRepo(ref string) bool {
	for _, p := range expandBraces(ref) {
		if strings.Contains(p, "/") {
			if m, _ := filepath.Glob(p); len(m) == 0 {
				return false
			}
		} else if !fileInTree(p) {
			return false
		}
	}
	return true
}

// fileInTree reports whether a file whose name matches pattern exists
// anywhere in the repository, skipping hidden directories.
func fileInTree(pattern string) bool {
	found := false
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, _ := filepath.Match(pattern, d.Name()); ok {
			found = true
			return filepath.SkipAll
		}
		return nil
	})
	return found
}

// TestDocArtifactsExist fails when README, EXPERIMENTS or DESIGN cites
// an artifact that does not exist: a repository file (results CSVs,
// BENCH files, archived logs, source files) that is missing, or a
// checkpoint-directory file name that a real checkpointed run does not
// write. Docs cannot drift from what the repository ships and what the
// program produces without breaking this test.
func TestDocArtifactsExist(t *testing.T) {
	produced := checkpointArtifacts(t)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		refs := citedArtifacts(string(data))
		if len(refs) == 0 {
			t.Fatalf("%s cites no artifacts; the extractor is broken", doc)
		}
		for _, ref := range refs {
			var ok bool
			if runtimeArtifact(ref) {
				ok = matchesRuntime(ref, produced)
			} else {
				ok = existsInRepo(ref)
			}
			if !ok {
				t.Errorf("%s cites `%s`, which does not exist", doc, ref)
			}
		}
	}
}
