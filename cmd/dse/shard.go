package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// workerCommand builds the process for one distributed-worker attempt.
// It is a variable so tests can substitute a helper-process constructor;
// the default re-executes this binary with the rewritten argument list.
// Worker stdout is routed to stderr: study output on the coordinator's
// stdout stays bit-identical to a single-process run.
var workerCommand = func(args []string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd
}

// shardRun executes the dataset command in its four modes: unsharded
// (compute shard 0/1, then merge immediately so the standard checkpoint
// files appear), worker (-shard i/n: compute one slice into its own
// checkpoint), merge (-merge n: reassemble completed shards), and
// coordinator (-distribute n: fork one worker per shard, restart
// failures from their checkpoints, then merge).
type shardRun struct {
	e          *core.Explorer
	out        io.Writer
	man        *obs.Manifest
	idx, count int
	explicit   bool // -shard was given: leave merging to the caller
	merge      int
	distribute int
	workerArgs func(i, n int, suffix string) []string

	// Liveness supervision (coordinator mode): -stall-timeout arms the
	// beacon monitor, -speculate the tail-straggler backup attempts.
	stallTimeout  time.Duration
	speculate     bool
	checkpointDir string
}

// specSuffix is appended to a speculative backup attempt's shard
// checkpoint and beacon filenames so it never races the primary on
// files; a winning backup's checkpoints are promoted (renamed) over the
// canonical names before the merge.
const specSuffix = ".spec"

func (s *shardRun) run() error {
	switch {
	case s.distribute > 0:
		return s.runDistribute()
	case s.merge > 0:
		return s.runMerge(s.merge)
	default:
		return s.runWorker()
	}
}

// recordShard appends one shard record to the run manifest, when one is
// being written.
func (s *shardRun) recordShard(rec obs.ShardRecord) {
	if s.man != nil {
		s.man.Shards = append(s.man.Shards, rec)
	}
}

// runWorker computes this process's shard — the whole domain when the
// run is unsharded — and merges immediately in the unsharded case.
func (s *shardRun) runWorker() error {
	r := s.e.DatasetShardRange(s.idx, s.count)
	s.recordShard(obs.ShardRecord{
		Domain: "dataset", Index: s.idx, Count: s.count, Lo: r.Lo, Hi: r.Hi,
	})
	start := time.Now()
	if err := s.e.BuildDatasetShard(context.Background(), s.idx, s.count); err != nil {
		return err
	}
	total := len(s.e.Benchmarks()) * s.e.Options().TrainSamples
	fmt.Fprintf(s.out, "dataset shard %d/%d complete: %d of %d indices in %.1fs\n",
		s.idx, s.count, r.Len(), total, time.Since(start).Seconds())
	if !s.explicit {
		return s.runMerge(1)
	}
	return nil
}

// runMerge reassembles n completed shard checkpoints into the standard
// checkpoint files, byte-identical to a single-process run's.
func (s *shardRun) runMerge(n int) error {
	start := time.Now()
	if err := s.e.MergeDatasetShards(n); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "merged %d dataset shard(s) into standard checkpoints in %.1fs\n",
		n, time.Since(start).Seconds())
	return nil
}

// runDistribute supervises one worker process per shard — restarting
// failures, which resume from their own checkpoints — then merges. The
// per-shard progress stream goes to stderr as it happens and into the
// manifest's shard records at the end.
func (s *shardRun) runDistribute() error {
	n := s.distribute
	coord := &shard.Coordinator{
		N: n,
		Command: func(i, n int) *exec.Cmd {
			return workerCommand(s.workerArgs(i, n, ""))
		},
		StallTimeout: s.stallTimeout,
		OnEvent: func(ev shard.Event) {
			switch ev.Kind {
			case shard.EventStart:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d starting\n",
					ev.Shard, n, ev.Attempt)
			case shard.EventExit:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d finished in %.1fs\n",
					ev.Shard, n, ev.Attempt, ev.Elapsed.Seconds())
			case shard.EventRestart:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d failed after %.1fs (%v); restarting from checkpoint\n",
					ev.Shard, n, ev.Attempt, ev.Elapsed.Seconds(), ev.Err)
			case shard.EventFail:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d gave up after attempt %d: %v\n",
					ev.Shard, n, ev.Attempt, ev.Err)
			case shard.EventStalled:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d attempt %d stalled (no beacon progress for %s); killed, restarting from checkpoint\n",
					ev.Shard, n, ev.Attempt, s.stallTimeout)
			case shard.EventSpeculative:
				fmt.Fprintf(os.Stderr, "dse: dataset shard %d/%d straggling after %.1fs; launching speculative backup attempt\n",
					ev.Shard, n, ev.Elapsed.Seconds())
			}
		},
	}
	if s.stallTimeout > 0 {
		coord.BeaconPath = func(i, n int) string {
			return shard.BeaconPath(s.checkpointDir, "dataset", i, n)
		}
	}
	if s.speculate {
		coord.SpecCommand = func(i, n int) *exec.Cmd {
			return workerCommand(s.workerArgs(i, n, specSuffix))
		}
		coord.OnSpecWin = func(i, n int) error {
			return s.e.PromoteShardCheckpoints(i, n, specSuffix)
		}
	}
	workers, err := coord.Run(context.Background())
	for _, w := range workers {
		r := s.e.DatasetShardRange(w.Shard, n)
		rec := obs.ShardRecord{
			Domain: "dataset", Index: w.Shard, Count: n, Lo: r.Lo, Hi: r.Hi,
			Attempts: w.Attempts, Seconds: w.Elapsed.Seconds(), Status: "ok",
			Stalls: w.Stalls, Speculated: w.Speculated, SpecWon: w.SpecWon,
		}
		if w.Err != nil {
			rec.Status = "failed"
		}
		s.recordShard(rec)
	}
	if err != nil {
		return err
	}
	attempts := 0
	for _, w := range workers {
		attempts += w.Attempts
	}
	fmt.Fprintf(s.out, "distributed dataset across %d workers (%d attempts)\n",
		n, attempts)
	return s.runMerge(n)
}
