package obs

import (
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// goldenManifest is a fully-populated manifest with deterministic fields
// (no clock, no git) so its JSON form can be pinned exactly.
func goldenManifest() *Manifest {
	return &Manifest{
		Version:         ManifestVersion,
		Tool:            "dse",
		Command:         "pareto",
		Args:            []string{"-samples", "1000"},
		GitRev:          "0123456789abcdef0123456789abcdef01234567",
		GoVersion:       "go1.22.0",
		Seed:            2007,
		SpaceSize:       262500,
		SampleSpaceSize: 375000,
		Benchmarks:      []string{"ammp", "mcf"},
		Workers:         4,
		Start:           "2026-08-05T12:00:00Z",
		WallSeconds:     12.5,
		Phases: []Phase{
			{Name: "train", Seconds: 10.25, Stats: map[string]int64{"sim_evaluations": 2000}},
			{Name: "pareto", Seconds: 2.25, Stats: map[string]int64{"model_swept_points": 525000}},
		},
		Counters: map[string]int64{"sim.instructions": 200000000},
		Histograms: []HistogramSnapshot{
			{Name: "eval.sim.invoke", Count: 2000, SumNS: 9000000000,
				Buckets: []BucketCount{{UpperNS: 8388608000, Count: 2000}}},
		},
		TraceSpans: 4123,
	}
}

const goldenJSON = `{
 "version": 1,
 "tool": "dse",
 "command": "pareto",
 "args": [
  "-samples",
  "1000"
 ],
 "git_rev": "0123456789abcdef0123456789abcdef01234567",
 "go_version": "go1.22.0",
 "seed": 2007,
 "space_size": 262500,
 "sample_space_size": 375000,
 "benchmarks": [
  "ammp",
  "mcf"
 ],
 "workers": 4,
 "start": "2026-08-05T12:00:00Z",
 "wall_seconds": 12.5,
 "phases": [
  {
   "name": "train",
   "seconds": 10.25,
   "stats": {
    "sim_evaluations": 2000
   }
  },
  {
   "name": "pareto",
   "seconds": 2.25,
   "stats": {
    "model_swept_points": 525000
   }
  }
 ],
 "counters": {
  "sim.instructions": 200000000
 },
 "histograms": [
  {
   "name": "eval.sim.invoke",
   "count": 2000,
   "sum_ns": 9000000000,
   "buckets": [
    {
     "le_ns": 8388608000,
     "count": 2000
    }
   ]
  }
 ],
 "trace_spans": 4123
}
`

// TestManifestGoldenRoundTrip pins the manifest JSON schema byte-for-byte
// and verifies WriteFile/ReadManifest reproduce the exact structure.
func TestManifestGoldenRoundTrip(t *testing.T) {
	m := goldenManifest()
	var sb strings.Builder
	if err := m.Encode(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenJSON {
		t.Fatalf("manifest JSON drifted from golden.\ngot:\n%s\nwant:\n%s", sb.String(), goldenJSON)
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, m)
	}
}

func TestReadManifestRejectsWrongVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := goldenManifest()
	m.Version = ManifestVersion + 1
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("wrong-version manifest accepted")
	}
}

func TestNewManifestStampsEnvironment(t *testing.T) {
	m := NewManifest("dse", "train", []string{"-samples", "10"})
	if m.Version != ManifestVersion || m.Tool != "dse" || m.Command != "train" {
		t.Fatalf("header fields wrong: %+v", m)
	}
	if m.GoVersion == "" {
		t.Fatal("GoVersion not stamped")
	}
	if _, err := time.Parse(time.RFC3339, m.Start); err != nil {
		t.Fatalf("Start is not RFC 3339: %q", m.Start)
	}
	// This repository is a git checkout, so the revision must resolve to
	// a hex hash; "unknown" is reserved for non-repo environments.
	if m.GitRev != "unknown" && !regexp.MustCompile(`^[0-9a-f]{40}$`).MatchString(m.GitRev) {
		t.Fatalf("GitRev is neither a hash nor unknown: %q", m.GitRev)
	}
}

func TestManifestFinishAbsorbsRegistryAndTracer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	reg.Histogram("h").Observe(time.Millisecond)
	tr := NewTracer(16)
	tr.start(0, "x", nil).End()

	m := NewManifest("dse", "train", nil)
	pt := m.StartPhase("train")
	pt.End(map[string]int64{"sim_evaluations": 7})
	m.Finish(reg, tr)

	if len(m.Phases) != 1 || m.Phases[0].Name != "train" || m.Phases[0].Stats["sim_evaluations"] != 7 {
		t.Fatalf("phases = %+v", m.Phases)
	}
	if m.Phases[0].Seconds < 0 {
		t.Fatal("negative phase time")
	}
	if m.Counters["c"] != 3 {
		t.Fatalf("counters = %v", m.Counters)
	}
	if len(m.Histograms) != 1 || m.Histograms[0].Name != "h" {
		t.Fatalf("histograms = %+v", m.Histograms)
	}
	if m.TraceSpans != 1 {
		t.Fatalf("trace spans = %d", m.TraceSpans)
	}
	if m.WallSeconds < 0 {
		t.Fatal("negative wall time")
	}
}

// TestStampedRevision pins how the go command's VCS stamp becomes a
// revision: vcs.revision as is, "-dirty" appended only when vcs.modified
// is "true", and nothing without a revision.
func TestStampedRevision(t *testing.T) {
	const hash = "0123456789abcdef0123456789abcdef01234567"
	for _, tc := range []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"clean", []debug.BuildSetting{
			{Key: "vcs", Value: "git"}, {Key: "vcs.revision", Value: hash}, {Key: "vcs.modified", Value: "false"},
		}, hash},
		{"dirty", []debug.BuildSetting{
			{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: hash},
		}, hash + "-dirty"},
		{"no modified flag", []debug.BuildSetting{{Key: "vcs.revision", Value: hash}}, hash},
		{"unstamped", []debug.BuildSetting{{Key: "-compiler", Value: "gc"}}, ""},
		{"modified without revision", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
		{"no settings", nil, ""},
	} {
		if got := stampedRevision(tc.settings); got != tc.want {
			t.Errorf("%s: stampedRevision = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestGitRevisionUnknownOutsideRepo(t *testing.T) {
	if rev := GitRevision(t.TempDir()); rev != "unknown" {
		t.Fatalf("revision in temp dir = %q, want unknown", rev)
	}
}

// TestManifestShardRecordsRoundTrip: sharded runs append ShardRecords;
// they must survive WriteFile/ReadManifest and stay omitted (so the
// schema golden above is untouched) when the run is unsharded.
func TestManifestShardRecordsRoundTrip(t *testing.T) {
	m := goldenManifest()
	m.Shards = []ShardRecord{
		{Domain: "dataset", Index: 0, Count: 2, Lo: 0, Hi: 1000, Attempts: 2, Seconds: 3.5, Status: "ok"},
		{Domain: "dataset", Index: 1, Count: 2, Lo: 1000, Hi: 2000, Attempts: 1, Seconds: 1.25, Status: "ok"},
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shards, m.Shards) {
		t.Fatalf("shards round-trip mismatch:\ngot  %+v\nwant %+v", got.Shards, m.Shards)
	}
}
