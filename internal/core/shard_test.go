package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/shard"
)

// mustEqualFiles asserts two checkpoint files are byte-identical — the
// sharding layer's core promise.
func mustEqualFiles(t *testing.T, golden, merged string) {
	t.Helper()
	g, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	m, err := os.ReadFile(merged)
	if err != nil {
		t.Fatalf("merged: %v", err)
	}
	if !bytes.Equal(g, m) {
		t.Fatalf("%s (%d bytes) differs from %s (%d bytes)", merged, len(m), golden, len(g))
	}
}

// TestShardedDatasetBitIdentical is the dataset acceptance test: a
// 200-config dataset over two benchmarks built as three shards (ranges
// straddle the benchmark boundary), merged, must match the unsharded
// training checkpoints byte for byte — and a resumed Train must fit off
// the merged files without a single simulation.
func TestShardedDatasetBitIdentical(t *testing.T) {
	if fault.Active() {
		t.Skip("exact eval counts need a fault-free world")
	}
	dsOpts := func() Options {
		o := DefaultOptions()
		o.TrainSamples = 200
		o.ValidationSamples = 5
		o.TraceLen = 2000
		o.Benchmarks = []string{"gzip", "mcf"}
		o.Workers = 2
		o.CheckpointEvery = 64
		return o
	}

	goldenDir := t.TempDir()
	opts := dsOpts()
	opts.CheckpointDir = goldenDir
	golden, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Train(); err != nil {
		t.Fatal(err)
	}

	shardDir := t.TempDir()
	const n = 3 // 400 flat indices -> uneven shards spanning both benchmarks
	for i := 0; i < n; i++ {
		o := dsOpts()
		o.CheckpointDir = shardDir
		w, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.BuildDatasetShard(context.Background(), i, n); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		r := w.DatasetShardRange(i, n)
		if got := w.SimStats().Evaluations; got != int64(r.Len()) {
			t.Errorf("shard %d simulated %d, want %d", i, got, r.Len())
		}
	}

	mergeOpts := dsOpts()
	mergeOpts.CheckpointDir = shardDir
	merger, err := New(mergeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := merger.MergeDatasetShards(n); err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"gzip", "mcf"} {
		mustEqualFiles(t,
			filepath.Join(goldenDir, "train-"+bench+".ckpt"),
			filepath.Join(shardDir, "train-"+bench+".ckpt"))
	}

	// The merged checkpoints are a complete dataset: training resumes to
	// identical models with zero simulations.
	mergeOpts.Resume = true
	trained, err := New(mergeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := trained.Train(); err != nil {
		t.Fatal(err)
	}
	if got := trained.SimStats().Evaluations; got != 0 {
		t.Errorf("post-merge Train simulated %d samples, want 0", got)
	}
	for _, bench := range []string{"gzip", "mcf"} {
		_, gc := golden.perf[bench].Coefficients()
		_, rc := trained.perf[bench].Coefficients()
		for i := range gc {
			if gc[i] != rc[i] {
				t.Fatalf("%s perf coefficient %d: golden %v, merged %v", bench, i, gc[i], rc[i])
			}
		}
	}
}

// TestShardedDatasetMoreShardsThanWork covers the degenerate partition
// end to end: more shards than flat indices, so several shards are
// empty — every shard still writes its (possibly empty) checkpoint and
// the merge still reassembles the exact dataset.
func TestShardedDatasetMoreShardsThanWork(t *testing.T) {
	tiny := func() Options {
		o := DefaultOptions()
		o.TrainSamples = 5
		o.ValidationSamples = 2
		o.TraceLen = 2000
		o.Benchmarks = []string{"gzip"}
		o.Workers = 2
		return o
	}
	// Golden: the whole domain as one shard (too few samples to fit a
	// model, so the comparison stops at the dataset checkpoint).
	goldenDir := t.TempDir()
	opts := tiny()
	opts.CheckpointDir = goldenDir
	golden, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.BuildDatasetShard(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := golden.MergeDatasetShards(1); err != nil {
		t.Fatal(err)
	}

	shardDir := t.TempDir()
	const n = 8 // 5 flat indices over 8 shards: 3 empty
	for i := 0; i < n; i++ {
		o := tiny()
		o.CheckpointDir = shardDir
		w, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.BuildDatasetShard(context.Background(), i, n); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	mergeOpts := tiny()
	mergeOpts.CheckpointDir = shardDir
	merger, err := New(mergeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := merger.MergeDatasetShards(n); err != nil {
		t.Fatal(err)
	}
	mustEqualFiles(t, filepath.Join(goldenDir, "train-gzip.ckpt"), filepath.Join(shardDir, "train-gzip.ckpt"))
}

// killTestOptions gives dataset shard 0/2 four checkpoint chunks of
// five samples ([0, 20) of the 40-sample gzip domain), so a kill can
// land mid-shard with work both behind and ahead of it.
func killTestOptions(dir string, resume bool) Options {
	o := ckptTestOptions()
	o.CheckpointEvery = 5
	o.CheckpointDir = dir
	o.Resume = resume
	return o
}

// goldenTrainCheckpoint writes the unsharded training checkpoint the
// kill tests merge against and returns its path.
func goldenTrainCheckpoint(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	golden, err := New(killTestOptions(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Train(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "train-gzip.ckpt")
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

// TestDatasetShardKillResumesMidShard is the mid-shard crash acceptance
// test: a dataset shard killed by a deterministic fault at its third
// checkpoint chunk resumes from its own checkpoint — simulating only the
// samples after that checkpoint, never restarting the shard — and the
// final merge is still byte-identical to the single-process build.
func TestDatasetShardKillResumesMidShard(t *testing.T) {
	if fault.Active() {
		t.Skip("test arms its own fault plan; exact eval counts need a fault-free world")
	}
	golden := goldenTrainCheckpoint(t)
	shardDir := t.TempDir()

	killed := mustNew(t, killTestOptions(shardDir, false))
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "core.dataset.shard", Kind: fault.KindFatal, After: 2, Every: 1, Count: 1},
	}})
	err := killed.BuildDatasetShard(context.Background(), 0, 2)
	fault.Enable(prev)
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("killed BuildDatasetShard returned %v, want wrapped *fault.Injected", err)
	}
	if got := killed.SimStats().Evaluations; got != 10 {
		t.Fatalf("killed shard simulated %d samples, want 10 before dying", got)
	}

	// Merging now must refuse: the shard checkpoint exists but is not
	// complete.
	if err := mustNew(t, killTestOptions(shardDir, false)).MergeDatasetShards(2); !errors.Is(err, ErrShardIncomplete) {
		t.Fatalf("merge of incomplete shard returned %v, want ErrShardIncomplete", err)
	}

	// A fresh worker (new process) resumes the shard from its checkpoint:
	// only the remaining 10 samples are simulated.
	resumed := mustNew(t, killTestOptions(shardDir, true))
	if err := resumed.BuildDatasetShard(context.Background(), 0, 2); err != nil {
		t.Fatalf("resumed BuildDatasetShard: %v", err)
	}
	if got := resumed.SimStats().Evaluations; got != 10 {
		t.Fatalf("resumed shard simulated %d samples, want 10", got)
	}

	if err := mustNew(t, killTestOptions(shardDir, false)).BuildDatasetShard(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := mustNew(t, killTestOptions(shardDir, false)).MergeDatasetShards(2); err != nil {
		t.Fatal(err)
	}
	mustEqualFiles(t, golden, filepath.Join(shardDir, "train-gzip.ckpt"))
}

// TestDatasetShardKillDuringBeaconWriteResumes kills a dataset worker in
// the middle of publishing its progress beacon — the liveness
// protocol's own write path. The atomic beacon write must leave the
// previous (valid) beacon on disk, and a resumed worker must pick up
// the on-disk sequence number (so a supervisor never sees Seq move
// backwards across the restart), finish the remaining chunks, and
// still merge byte-identical.
func TestDatasetShardKillDuringBeaconWriteResumes(t *testing.T) {
	if fault.Active() {
		t.Skip("test arms its own fault plan; exact eval counts need a fault-free world")
	}
	golden := goldenTrainCheckpoint(t)
	shardDir := t.TempDir()

	// Beacon writes in a shard run: one on entry, then one after each
	// checkpointed chunk. Kill the third write — the one announcing the
	// second chunk, which ckpt.Save has already published.
	killed := mustNew(t, killTestOptions(shardDir, false))
	prev := fault.Current()
	fault.Enable(&fault.Plan{Rules: []fault.Rule{
		{Site: "shard.beacon", Kind: fault.KindFatal, After: 2, Every: 1, Count: 1},
	}})
	err := killed.BuildDatasetShard(context.Background(), 0, 2)
	fault.Enable(prev)
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("killed BuildDatasetShard returned %v, want wrapped *fault.Injected", err)
	}
	if got := killed.SimStats().Evaluations; got != 10 {
		t.Fatalf("killed shard simulated %d samples, want 10 before dying", got)
	}

	// The beacon on disk is the previous one, intact: first chunk done.
	beaconPath := shard.BeaconPath(shardDir, "dataset", 0, 2)
	b, err := shard.ReadBeacon(beaconPath)
	if err != nil {
		t.Fatalf("beacon after mid-write kill: %v", err)
	}
	if b.Cursor != 5 || b.Seq != 2 {
		t.Fatalf("beacon after kill: cursor %d seq %d, want cursor 5 seq 2", b.Cursor, b.Seq)
	}

	// Resume: only the remaining samples are simulated, and the beacon's
	// sequence continues past the on-disk value instead of restarting.
	resumed := mustNew(t, killTestOptions(shardDir, true))
	if err := resumed.BuildDatasetShard(context.Background(), 0, 2); err != nil {
		t.Fatalf("resumed BuildDatasetShard: %v", err)
	}
	if got := resumed.SimStats().Evaluations; got != 10 {
		t.Fatalf("resumed shard simulated %d samples, want 10", got)
	}
	final, err := shard.ReadBeacon(beaconPath)
	if err != nil {
		t.Fatal(err)
	}
	if final.Cursor != 20 {
		t.Fatalf("final beacon cursor %d, want 20", final.Cursor)
	}
	if final.Seq <= b.Seq {
		t.Fatalf("beacon seq went backwards across restart: %d -> %d", b.Seq, final.Seq)
	}
	if !final.Progressed(b) {
		t.Fatal("final beacon does not register as progress over the pre-kill one")
	}

	if err := mustNew(t, killTestOptions(shardDir, false)).BuildDatasetShard(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := mustNew(t, killTestOptions(shardDir, false)).MergeDatasetShards(2); err != nil {
		t.Fatal(err)
	}
	mustEqualFiles(t, golden, filepath.Join(shardDir, "train-gzip.ckpt"))
}

// TestShardIdentityMismatchRejected: shard checkpoints carry the run
// identity plus the shard ID, so a merge under a different run (seed)
// or partition must fail with ckpt.ErrIdentity.
func TestShardIdentityMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	opts := ckptTestOptions()
	opts.CheckpointDir = dir
	opts.TrainSamples = 10
	w, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BuildDatasetShard(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}

	// Different run identity (seed).
	other := opts
	other.Seed++
	m, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MergeDatasetShards(1); !errors.Is(err, ckpt.ErrIdentity) {
		t.Fatalf("merge under different seed returned %v, want ckpt.ErrIdentity", err)
	}

	// Same run, different partition: copy the 0/1 shard file where a 0/2
	// merge would look for it. The identity's shard ID must refuse it.
	src, err := os.ReadFile(filepath.Join(dir, "train-shard-0of1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"train-shard-0of2.ckpt", "train-shard-1of2.ckpt"} {
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.MergeDatasetShards(2); !errors.Is(err, ckpt.ErrIdentity) {
		t.Fatalf("merge of repartitioned shard file returned %v, want ckpt.ErrIdentity", err)
	}
}
