package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/atomicio"
)

// ManifestVersion identifies the manifest schema; bump it when fields
// change incompatibly.
const ManifestVersion = 1

// Phase is one timed stage of a run: its wall time and an
// integer-valued stats snapshot (engine-counter deltas for the phase).
type Phase struct {
	Name    string           `json:"name"`
	Seconds float64          `json:"seconds"`
	Stats   map[string]int64 `json:"stats,omitempty"`
}

// ShardRecord describes one shard of a distributed run: which slice of
// which work domain it owned and how its worker fared. A worker records
// its own single shard; a coordinator records one entry per worker,
// including restart counts — the manifest-level trail of the per-shard
// progress stream.
type ShardRecord struct {
	Domain   string  `json:"domain"` // work domain, e.g. "dataset"
	Index    int     `json:"index"`  // shard index in [0, Count)
	Count    int     `json:"count"`  // total shards in the partition
	Lo       int     `json:"lo"`     // owned flat-index range [Lo, Hi)
	Hi       int     `json:"hi"`
	Attempts int     `json:"attempts,omitempty"` // worker launches (coordinator only)
	Seconds  float64 `json:"seconds,omitempty"`  // total worker wall time (coordinator only)
	Status   string  `json:"status,omitempty"`   // "ok" or "failed" (coordinator only)

	// Liveness supervision (coordinator only): stall-kills by the
	// beacon monitor, and whether a speculative backup ran / won.
	Stalls     int  `json:"stalls,omitempty"`
	Speculated bool `json:"speculated,omitempty"`
	SpecWon    bool `json:"spec_won,omitempty"`
}

// Manifest is the run record a command emits next to its results: what
// ran (tool, command, arguments, git revision), over what (seed, space
// sizes, benchmarks, workers), and where the time went (per-phase wall
// clock and engine-stat deltas, counters, latency histograms). One
// manifest per invocation makes every study re-derivable and every
// performance claim checkable without re-running the tool.
type Manifest struct {
	Version   int      `json:"version"`
	Tool      string   `json:"tool"`
	Command   string   `json:"command"`
	Args      []string `json:"args,omitempty"`
	GitRev    string   `json:"git_rev"`
	GoVersion string   `json:"go_version"`

	Seed            uint64   `json:"seed"`
	SpaceSize       int      `json:"space_size"`
	SampleSpaceSize int      `json:"sample_space_size,omitempty"`
	Benchmarks      []string `json:"benchmarks,omitempty"`
	Workers         int      `json:"workers"`

	Start       string  `json:"start,omitempty"` // RFC 3339
	WallSeconds float64 `json:"wall_seconds"`
	Phases      []Phase `json:"phases"`

	// Shards lists the distributed-run slices this invocation owned
	// (worker: its one shard) or supervised (coordinator: all of them).
	// Empty for unsharded runs.
	Shards []ShardRecord `json:"shards,omitempty"`

	Counters   map[string]int64    `json:"counters,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	TraceSpans int64               `json:"trace_spans,omitempty"`

	start time.Time
}

// NewManifest starts a manifest for one command invocation, stamping the
// start time, Go version and git revision (see GitRevision: the build's
// VCS stamp, else the current directory's repository, else "unknown").
func NewManifest(tool, command string, args []string) *Manifest {
	now := time.Now()
	return &Manifest{
		Version:   ManifestVersion,
		Tool:      tool,
		Command:   command,
		Args:      args,
		GitRev:    GitRevision("."),
		GoVersion: runtime.Version(),
		Start:     now.UTC().Format(time.RFC3339),
		start:     now,
	}
}

// PhaseTimer measures one phase; see Manifest.StartPhase.
type PhaseTimer struct {
	m     *Manifest
	name  string
	start time.Time
}

// StartPhase begins timing a named phase. Call End on the returned timer
// when the phase completes; phases append in completion order.
func (m *Manifest) StartPhase(name string) *PhaseTimer {
	return &PhaseTimer{m: m, name: name, start: time.Now()}
}

// End records the phase with its wall time and an optional stats
// snapshot (typically engine-counter deltas from StatsEpoch, so
// sequential phases in one process never double-count).
func (p *PhaseTimer) End(stats map[string]int64) {
	p.m.Phases = append(p.m.Phases, Phase{
		Name:    p.name,
		Seconds: time.Since(p.start).Seconds(),
		Stats:   stats,
	})
}

// Finish stamps the total wall time and absorbs the registry's counters
// and histograms plus the tracer's span total. Call once, after the last
// phase.
func (m *Manifest) Finish(reg *Registry, tr *Tracer) {
	if !m.start.IsZero() {
		m.WallSeconds = time.Since(m.start).Seconds()
	}
	if reg != nil {
		if c := reg.CounterValues(); len(c) > 0 {
			m.Counters = c
		}
		m.Histograms = reg.HistogramSnapshots()
	}
	if tr != nil {
		m.TraceSpans = tr.Total()
	}
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path atomically (temp file + fsync +
// rename), so a crash mid-write can never leave a torn manifest where a
// previous run's complete one stood.
func (m *Manifest) WriteFile(path string) error {
	return atomicio.WriteTo(path, 0o644, m.Encode)
}

// ReadManifest loads a manifest written by WriteFile, rejecting unknown
// schema versions.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: decoding manifest %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("obs: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	return &m, nil
}

// GitRevision returns the commit the running binary was built from. It
// prefers the revision the go command stamped into the binary, so the
// answer holds wherever the binary runs, and otherwise resolves HEAD by
// reading .git directly (no subprocess): it walks up from dir to the
// nearest .git, follows a symbolic HEAD to its ref file, and falls back
// to packed-refs. Returns "unknown" when neither source has a revision.
func GitRevision(dir string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		if rev := stampedRevision(info.Settings); rev != "" {
			return rev
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	for {
		gitDir := filepath.Join(abs, ".git")
		if fi, err := os.Stat(gitDir); err == nil && fi.IsDir() {
			if rev := revisionFromGitDir(gitDir); rev != "" {
				return rev
			}
			return "unknown"
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "unknown"
		}
		abs = parent
	}
}

// stampedRevision reads the go command's VCS stamp from build settings:
// vcs.revision, suffixed "-dirty" when vcs.modified is true, or "" when
// the build carries no revision.
func stampedRevision(settings []debug.BuildSetting) string {
	var rev string
	dirty := false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}

func revisionFromGitDir(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	if !strings.HasPrefix(h, "ref: ") {
		return h // detached HEAD holds the hash directly
	}
	ref := strings.TrimSpace(strings.TrimPrefix(h, "ref: "))
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	// Ref may be packed.
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "^") {
			continue
		}
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}
