package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// shardArgs is the cheap configuration the shard CLI tests share: two
// benchmarks so dataset shards cross a benchmark boundary, a training
// budget just above the model's 21 coefficients, and short traces.
func shardArgs(extra ...string) []string {
	base := []string{
		"-samples", "40",
		"-validation", "5",
		"-tracelen", "2000",
		"-benchmarks", "gzip,mcf",
	}
	return append(base, extra...)
}

func TestShardFlagValidation(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	cases := [][]string{
		{"-shard", "0/2", "-checkpoint", dir, "train"},                  // not a shardable command
		{"-merge", "2", "-checkpoint", dir, "validate"},                 // not a shardable command
		{"-distribute", "2", "-checkpoint", dir, "report"},              // not a shardable command
		{"-shard", "0/2", "dataset"},                                    // missing -checkpoint
		{"-checkpoint", dir, "-shard", "0/2", "-merge", "2", "dataset"}, // mutually exclusive
		{"-checkpoint", dir, "-shard", "2/2", "dataset"},                // index out of range
		{"-checkpoint", dir, "-shard", "nope", "dataset"},               // malformed spec
		{"-checkpoint", dir, "-merge", "-1", "dataset"},                 // negative count
		{"dataset"}, // dataset requires -checkpoint
		{"-checkpoint", dir, "-shard", "0/2", "sweep"},                               // the sweep is not a shardable command
		{"-checkpoint", dir, "-stall-timeout", "2s", "dataset"},                      // stall-timeout requires -distribute
		{"-checkpoint", dir, "-distribute", "2", "-stall-timeout", "-1s", "dataset"}, // negative timeout
		{"-checkpoint", dir, "-distribute", "2", "-speculate", "dataset"},            // speculate requires -stall-timeout
		{"-checkpoint", dir, "-shardsuffix", ".spec", "dataset"},                     // shardsuffix is worker-only
	}
	for _, args := range cases {
		if err := run(shardArgs(args...), &out); err == nil {
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

// TestDatasetShardMergeByteIdentical drives the dataset command through
// the CLI in both modes: one unsharded run, and three shard runs (the
// middle shard spans the gzip/mcf boundary) plus a merge. The standard
// training checkpoints must come out byte-identical, and a subsequent
// -resume train must fit models from them without simulating (the train
// phase's manifest stats carry no sim_evaluations).
func TestDatasetShardMergeByteIdentical(t *testing.T) {
	golden, dir := t.TempDir(), t.TempDir()
	var out bytes.Buffer

	if err := run(shardArgs("-checkpoint", golden, "dataset"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dataset shard 0/1 complete") ||
		!strings.Contains(out.String(), "merged 1 dataset shard(s)") {
		t.Fatalf("unsharded dataset output unexpected:\n%s", out.String())
	}

	workerManifest := filepath.Join(dir, "worker1.json")
	for i := 0; i < 3; i++ {
		out.Reset()
		spec := fmt.Sprintf("%d/3", i)
		args := []string{"-checkpoint", dir, "-shard", spec}
		if i == 1 {
			args = append(args, "-manifest", workerManifest)
		}
		if err := run(shardArgs(append(args, "dataset")...), &out); err != nil {
			t.Fatalf("shard %s: %v", spec, err)
		}
		if strings.Contains(out.String(), "merged") {
			t.Fatalf("explicit shard %s merged on its own:\n%s", spec, out.String())
		}
	}
	// A worker's manifest records the range it owned.
	wm, err := obs.ReadManifest(workerManifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Shards) != 1 {
		t.Fatalf("worker manifest has %d shard records, want 1", len(wm.Shards))
	}
	if rec := wm.Shards[0]; rec.Domain != "dataset" || rec.Index != 1 || rec.Count != 3 || rec.Lo != 26 || rec.Hi != 53 {
		t.Fatalf("worker shard record unexpected: %+v", rec)
	}
	out.Reset()
	if err := run(shardArgs("-checkpoint", dir, "-merge", "3", "dataset"), &out); err != nil {
		t.Fatal(err)
	}

	for _, bench := range []string{"gzip", "mcf"} {
		mustEqualFiles(t,
			filepath.Join(golden, "train-"+bench+".ckpt"),
			filepath.Join(dir, "train-"+bench+".ckpt"))
	}

	// Training from the merged checkpoints must not simulate.
	manifest := filepath.Join(dir, "manifest.json")
	out.Reset()
	if err := run(shardArgs("-checkpoint", dir, "-resume", "-manifest", manifest, "train"), &out); err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range man.Phases {
		if ph.Name == "train" && ph.Stats["sim_evaluations"] != 0 {
			t.Fatalf("resume train simulated %d times", ph.Stats["sim_evaluations"])
		}
	}
	if len(man.Shards) != 0 {
		t.Fatalf("unsharded train manifest carries shard records: %+v", man.Shards)
	}
}

// TestHelperProcess is the distributed-worker stand-in: when re-executed
// by the coordinator tests (DSE_WORKER_HELPER=1) it runs the real CLI on
// the arguments after "--" and exits with the CLI's status, exactly like
// the shipped binary would.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("DSE_WORKER_HELPER") != "1" {
		return
	}
	sep := -1
	for i, a := range os.Args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 0 {
		fmt.Fprintln(os.Stderr, "helper: no -- separator")
		os.Exit(2)
	}
	if err := run(os.Args[sep+1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestDistributedDatasetKillAndRestart runs `dse -distribute 2 dataset`
// with real worker processes (the helper above), injecting a fatal
// fault into shard 0's first attempt via REPRO_FAULT_PLAN. The
// coordinator must restart that worker, the run must converge, the
// merged checkpoints must be byte-identical to an unsharded run, and
// the coordinator manifest must record both shards — the failed one
// with two attempts.
func TestDistributedDatasetKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	golden, dir := t.TempDir(), t.TempDir()
	var out bytes.Buffer
	if err := run(shardArgs("-checkpoint", golden, "dataset"), &out); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	attempts := make(map[string]int)
	orig := workerCommand
	workerCommand = func(args []string) *exec.Cmd {
		spec := ""
		for i, a := range args {
			if a == "-shard" && i+1 < len(args) {
				spec = args[i+1]
			}
		}
		mu.Lock()
		attempts[spec]++
		n := attempts[spec]
		mu.Unlock()
		cmd := exec.Command(os.Args[0],
			append([]string{"-test.run=^TestHelperProcess$", "--"}, args...)...)
		cmd.Env = append(os.Environ(), "DSE_WORKER_HELPER=1")
		if spec == "0/2" && n == 1 {
			// Kill the first attempt of shard 0 mid-simulation; the restart
			// runs fault-free and resumes from the shard's checkpoint.
			cmd.Env = append(cmd.Env, "REPRO_FAULT_PLAN=eval.invoke:fatal:every=1,after=10,count=1")
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		return cmd
	}
	defer func() { workerCommand = orig }()

	manifest := filepath.Join(dir, "coordinator.json")
	out.Reset()
	if err := run(shardArgs("-checkpoint", dir, "-distribute", "2", "-manifest", manifest, "dataset"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "distributed dataset across 2 workers (3 attempts)") {
		t.Fatalf("coordinator output unexpected:\n%s", out.String())
	}

	for _, bench := range []string{"gzip", "mcf"} {
		mustEqualFiles(t,
			filepath.Join(golden, "train-"+bench+".ckpt"),
			filepath.Join(dir, "train-"+bench+".ckpt"))
	}

	man, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 2 {
		t.Fatalf("coordinator manifest has %d shard records, want 2", len(man.Shards))
	}
	for _, rec := range man.Shards {
		if rec.Status != "ok" {
			t.Fatalf("shard %d status %q", rec.Index, rec.Status)
		}
		wantAttempts := 1
		if rec.Index == 0 {
			wantAttempts = 2
		}
		if rec.Attempts != wantAttempts {
			t.Fatalf("shard %d took %d attempts, want %d", rec.Index, rec.Attempts, wantAttempts)
		}
	}
	if man.Counters["shard.worker_restarts"] < 1 {
		t.Fatalf("no worker restart counted: %v", man.Counters)
	}
}

// TestDistributedDatasetHangStallRestart runs `dse -distribute 2
// dataset` with a hang fault injected into shard 0's first attempt: the
// worker completes two checkpoint chunks (its beacon advancing) and then
// blocks forever at core.dataset.shard. The coordinator's beacon monitor
// must declare the stall after -stall-timeout, kill the worker, and
// restart it; the restart resumes from the shard checkpoint and the
// merged training checkpoints stay byte-identical to an unsharded
// fault-free run. The stall must be visible in the manifest: the
// stalled-worker counter and the shard record's stall count.
func TestDistributedDatasetHangStallRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	golden, dir := t.TempDir(), t.TempDir()
	// 750 samples on two benchmarks give each shard three 250-sample
	// checkpoint chunks, each well under the stall timeout, so only the
	// injected hang stalls.
	args := func(extra ...string) []string {
		return append([]string{
			"-samples", "750", "-validation", "5", "-tracelen", "2000",
			"-benchmarks", "gzip,mcf",
		}, extra...)
	}
	var out bytes.Buffer
	if err := run(args("-checkpoint", golden, "dataset"), &out); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	attempts := make(map[string]int)
	orig := workerCommand
	workerCommand = func(cargs []string) *exec.Cmd {
		spec := ""
		for i, a := range cargs {
			if a == "-shard" && i+1 < len(cargs) {
				spec = cargs[i+1]
			}
		}
		mu.Lock()
		attempts[spec]++
		n := attempts[spec]
		mu.Unlock()
		cmd := exec.Command(os.Args[0],
			append([]string{"-test.run=^TestHelperProcess$", "--"}, cargs...)...)
		cmd.Env = append(os.Environ(), "DSE_WORKER_HELPER=1")
		if spec == "0/2" && n == 1 {
			// Hang shard 0's first attempt at its third checkpoint chunk:
			// the beacon advances twice, then freezes. Only the monitor
			// can recover this worker — it will never exit on its own.
			cmd.Env = append(cmd.Env, "REPRO_FAULT_PLAN=core.dataset.shard:hang:every=1,after=2,count=1")
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		return cmd
	}
	defer func() { workerCommand = orig }()

	manifest := filepath.Join(dir, "coordinator.json")
	out.Reset()
	if err := run(args("-checkpoint", dir,
		"-distribute", "2", "-stall-timeout", "2s", "-manifest", manifest, "dataset"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "distributed dataset across 2 workers (3 attempts)") {
		t.Fatalf("coordinator output unexpected:\n%s", out.String())
	}

	for _, bench := range []string{"gzip", "mcf"} {
		mustEqualFiles(t,
			filepath.Join(golden, "train-"+bench+".ckpt"),
			filepath.Join(dir, "train-"+bench+".ckpt"))
	}

	man, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if man.Counters["shard.workers_stalled"] < 1 {
		t.Fatalf("no stalled worker counted: %v", man.Counters)
	}
	if len(man.Shards) != 2 {
		t.Fatalf("coordinator manifest has %d shard records, want 2", len(man.Shards))
	}
	for _, rec := range man.Shards {
		if rec.Status != "ok" {
			t.Fatalf("shard %d status %q", rec.Index, rec.Status)
		}
		if rec.Index == 0 && (rec.Stalls < 1 || rec.Attempts != 2) {
			t.Fatalf("shard 0 record missing stall trail: %+v", rec)
		}
	}
}

// TestDistributedDatasetSpeculativeBackupWins is the straggler drill
// behind -speculate: shard 0's primary worker is slowed by a delay plan
// at every checkpoint chunk while its backup attempt (the one running
// under -shardsuffix) runs clean. Once shard 1 is done, the monitor's
// projection must launch the backup, the backup must win, and its
// suffixed checkpoint must be promoted so the merged training
// checkpoints stay byte-identical to an unsharded run, with no .spec
// file left behind.
func TestDistributedDatasetSpeculativeBackupWins(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	golden, dir := t.TempDir(), t.TempDir()
	// 2,000 samples on two benchmarks give each shard eight 250-sample
	// chunks: the slowed primary needs over 8 s, the backup a fraction
	// of that.
	args := func(extra ...string) []string {
		return append([]string{
			"-samples", "2000", "-validation", "5", "-tracelen", "2000",
			"-benchmarks", "gzip,mcf",
		}, extra...)
	}
	var out bytes.Buffer
	if err := run(args("-checkpoint", golden, "dataset"), &out); err != nil {
		t.Fatal(err)
	}

	orig := workerCommand
	workerCommand = func(cargs []string) *exec.Cmd {
		cmd := exec.Command(os.Args[0],
			append([]string{"-test.run=^TestHelperProcess$", "--"}, cargs...)...)
		cmd.Env = append(os.Environ(), "DSE_WORKER_HELPER=1")
		if slices.Contains(cargs, "0/2") && !slices.Contains(cargs, "-shardsuffix") {
			cmd.Env = append(cmd.Env, "REPRO_FAULT_PLAN=core.dataset.shard:delay:every=1,delay=1s")
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		return cmd
	}
	defer func() { workerCommand = orig }()

	manifest := filepath.Join(t.TempDir(), "coordinator.json")
	out.Reset()
	if err := run(args("-checkpoint", dir, "-distribute", "2", "-stall-timeout", "3s",
		"-speculate", "-manifest", manifest, "dataset"), &out); err != nil {
		t.Fatal(err)
	}

	for _, bench := range []string{"gzip", "mcf"} {
		mustEqualFiles(t,
			filepath.Join(golden, "train-"+bench+".ckpt"),
			filepath.Join(dir, "train-"+bench+".ckpt"))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".spec") {
			t.Fatalf("speculative file %s left behind", e.Name())
		}
	}

	man, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if man.Counters["shard.speculative_wins"] < 1 {
		t.Fatalf("no speculative win counted: %v", man.Counters)
	}
	for _, rec := range man.Shards {
		if rec.Status != "ok" {
			t.Fatalf("shard %d status %q", rec.Index, rec.Status)
		}
		if rec.Index == 0 && (!rec.Speculated || !rec.SpecWon) {
			t.Fatalf("shard 0 record missing the winning backup: %+v", rec)
		}
	}
}
