package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance records what produced a result: the code, the toolchain,
// the host's parallelism and the workload inputs. The revision is never
// "unknown": it comes from the build's VCS stamp, else from .git, else
// from a digest of the source tree the benchmark was built from.
func provenance(cfg config, name string) map[string]any {
	src := sourceDigest(".")
	rev := vcsRevision()
	if rev == "" {
		rev = gitRevision(".")
	}
	if rev == "" {
		rev = "src-sha256:" + src
	}
	return map[string]any{
		"revision":    rev,
		"source_hash": src,
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workload":    name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds.Seconds(),
		"trace":       cfg.trace,
		"clients":     cfg.clients,
	}
}

// vcsRevision reads the revision the go command stamped into the binary.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "-dirty"
	}
	return rev
}

// gitRevision resolves HEAD from a .git directory under root without
// running git: a detached hash, a loose ref, or a packed ref.
func gitRevision(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// sourceDigest hashes every Go source and go.mod file under root (paths
// and contents, in path order), skipping hidden and build directories.
// It identifies the code under test where no VCS metadata exists.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		io.WriteString(h, f+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
