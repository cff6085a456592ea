package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shCmd builds a /bin/sh -c command, the stand-in worker for
// coordinator tests (real dse workers are exercised in cmd/dse).
func shCmd(script string) *exec.Cmd {
	return exec.Command("/bin/sh", "-c", script)
}

func TestCoordinatorRunsAllShards(t *testing.T) {
	dir := t.TempDir()
	c := &Coordinator{
		N: 3,
		Command: func(i, n int) *exec.Cmd {
			return shCmd(fmt.Sprintf("echo %d/%d > %s/shard-%d", i, n, dir, i))
		},
	}
	workers, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, w := range workers {
		if w.Shard != i || w.Attempts != 1 || w.Err != nil {
			t.Fatalf("worker %d = %+v", i, w)
		}
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		if err != nil || string(b) != fmt.Sprintf("%d/3\n", i) {
			t.Fatalf("shard %d output %q, %v", i, b, err)
		}
	}
}

// TestCoordinatorRestartsFailedWorker makes shard 1 fail on its first
// attempt only (a marker file distinguishes attempts), mimicking a
// worker killed mid-shard whose restart resumes and completes.
func TestCoordinatorRestartsFailedWorker(t *testing.T) {
	dir := t.TempDir()
	marker := filepath.Join(dir, "attempted")
	var mu sync.Mutex
	var events []Event
	c := &Coordinator{
		N: 2,
		Command: func(i, n int) *exec.Cmd {
			if i == 1 {
				return shCmd(fmt.Sprintf("test -e %s || { touch %s; exit 1; }", marker, marker))
			}
			return shCmd("true")
		},
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	workers, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if workers[1].Attempts != 2 || workers[1].Err != nil {
		t.Fatalf("shard 1 = %+v, want 2 attempts and success", workers[1])
	}
	restarts := 0
	for _, ev := range events {
		if ev.Kind == EventRestart {
			restarts++
			if ev.Shard != 1 || ev.Err == nil {
				t.Fatalf("restart event %+v", ev)
			}
		}
	}
	if restarts != 1 {
		t.Fatalf("%d restart events, want 1", restarts)
	}
}

func TestCoordinatorExhaustsRetries(t *testing.T) {
	c := &Coordinator{
		N:       1,
		Retries: 1,
		Command: func(i, n int) *exec.Cmd { return shCmd("exit 3") },
	}
	workers, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("Run succeeded despite permanent failure")
	}
	if workers[0].Attempts != 2 || workers[0].Err == nil {
		t.Fatalf("worker = %+v, want 2 attempts and an error", workers[0])
	}
}

func TestCoordinatorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		N:       1,
		Command: func(i, n int) *exec.Cmd { return shCmd("sleep 30") },
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Run(ctx)
	if err == nil {
		t.Fatal("Run survived cancellation")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; worker not killed", elapsed)
	}
}

// beaconJSON hand-rolls a beacon for shell-script stand-in workers.
func beaconJSON(i, n, lo, hi, cursor, seq int) string {
	return fmt.Sprintf(`{"version":1,"domain":"dataset","index":%d,"count":%d,"lo":%d,"hi":%d,"cursor":%d,"seq":%d,"time_unix_nano":0,"pid":0}`,
		i, n, lo, hi, cursor, seq)
}

// TestCoordinatorStallKillAndRestartConcurrent stalls BOTH shards on
// their first attempt (a beacon, then a hang), so two monitors drill
// two concurrent kill+restart cycles under the race detector. Within a
// shard the supervision sequence must be exactly Start, Stalled, Start,
// Exit; across shards the interleaving is free.
func TestCoordinatorStallKillAndRestartConcurrent(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var events []Event
	c := &Coordinator{
		N: 2,
		Command: func(i, n int) *exec.Cmd {
			marker := filepath.Join(dir, fmt.Sprintf("attempted-%d", i))
			beacon := BeaconPath(dir, "dataset", i, n)
			// Attempt 1: publish one beacon, then hang. Attempt 2 (the
			// marker exists): publish progress and exit cleanly.
			return shCmd(fmt.Sprintf(
				"if test -e %[1]s; then echo '%[3]s' > %[2]s; exit 0; fi; touch %[1]s; echo '%[4]s' > %[2]s; sleep 30",
				marker, beacon, beaconJSON(i, 2, 0, 100, 50, 2), beaconJSON(i, 2, 0, 100, 10, 1)))
		},
		StallTimeout: 300 * time.Millisecond,
		BeaconPath:   func(i, n int) string { return BeaconPath(dir, "dataset", i, n) },
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	workers, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, w := range workers {
		if w.Attempts != 2 || w.Stalls != 1 || w.Err != nil {
			t.Fatalf("worker %d = %+v, want 2 attempts, 1 stall, success", i, w)
		}
	}
	for i := 0; i < 2; i++ {
		var seq []EventKind
		for _, ev := range events {
			if ev.Shard == i {
				seq = append(seq, ev.Kind)
			}
		}
		want := []EventKind{EventStart, EventStalled, EventStart, EventExit}
		if !slices.Equal(seq, want) {
			t.Fatalf("shard %d event order %v, want %v", i, seq, want)
		}
	}
	for _, ev := range events {
		if ev.Kind == EventStalled && !errors.Is(ev.Err, ErrStalled) {
			t.Fatalf("stalled event carries %v, want ErrStalled", ev.Err)
		}
		if ev.Kind == EventRestart {
			t.Fatal("a stall produced a crash-restart event")
		}
	}
}

// TestCoordinatorStallBudgetExhausted starves the monitor of beacons
// entirely (the worker hangs before its first write), so every attempt
// is a stall-kill and the separate stall budget — not crash Retries —
// is what gives up on the shard.
func TestCoordinatorStallBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	c := &Coordinator{
		N:             1,
		Command:       func(i, n int) *exec.Cmd { return shCmd("sleep 30") },
		StallTimeout:  150 * time.Millisecond,
		BeaconPath:    func(i, n int) string { return BeaconPath(dir, "dataset", i, n) },
		StallRestarts: 1,
	}
	workers, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("Run succeeded despite a permanently hung worker")
	}
	w := workers[0]
	if !errors.Is(w.Err, ErrStalled) || w.Stalls != 2 || w.Attempts != 2 {
		t.Fatalf("worker = %+v, want 2 attempts and 2 stalls wrapping ErrStalled", w)
	}
}

// TestCoordinatorSpeculativeBackupWins gives shard 0 a live but
// hopeless straggler — it heartbeats every 100ms with ~10s of projected
// work against a 1s deadline — and a backup that finishes instantly.
// Once shard 1 is done the tail condition holds, the projection fires,
// and the backup must win: loser killed, OnSpecWin called, shard
// recorded as speculated-and-won.
func TestCoordinatorSpeculativeBackupWins(t *testing.T) {
	dir := t.TempDir()
	var promoted atomic.Bool
	var mu sync.Mutex
	var events []Event
	c := &Coordinator{
		N: 2,
		Command: func(i, n int) *exec.Cmd {
			if i == 1 {
				return shCmd("true")
			}
			beacon := BeaconPath(dir, "dataset", i, n)
			return shCmd(fmt.Sprintf(`c=0; s=0
while [ $c -lt 1000 ]; do
  c=$((c+10)); s=$((s+1))
  printf '{"version":1,"domain":"dataset","index":0,"count":2,"lo":0,"hi":1000,"cursor":%%d,"seq":%%d,"time_unix_nano":0,"pid":0}' $c $s > %[1]s.tmp && mv %[1]s.tmp %[1]s
  sleep 0.1
done`, beacon))
		},
		StallTimeout: time.Second,
		PollInterval: 50 * time.Millisecond,
		BeaconPath:   func(i, n int) string { return BeaconPath(dir, "dataset", i, n) },
		SpecCommand: func(i, n int) *exec.Cmd {
			return shCmd("true")
		},
		OnSpecWin: func(i, n int) error {
			promoted.Store(true)
			return nil
		},
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	start := time.Now()
	workers, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	w := workers[0]
	if !w.Speculated || !w.SpecWon || w.Err != nil {
		t.Fatalf("worker 0 = %+v, want a winning speculative backup", w)
	}
	if !promoted.Load() {
		t.Fatal("OnSpecWin was not called")
	}
	// The primary alone would have taken ~100s; the backup win must
	// have cut the run short by killing it.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v; the straggling primary was not preempted", elapsed)
	}
	sawSpec := false
	for _, ev := range events {
		if ev.Kind == EventSpeculative && ev.Shard == 0 {
			sawSpec = true
		}
	}
	if !sawSpec {
		t.Fatal("no EventSpeculative was emitted")
	}
}

// TestCoordinatorValidatesSupervisionConfig: stall monitoring without a
// beacon path, and speculation without stall monitoring, are config
// errors, not silent no-ops.
func TestCoordinatorValidatesSupervisionConfig(t *testing.T) {
	base := func() *Coordinator {
		return &Coordinator{N: 1, Command: func(i, n int) *exec.Cmd { return shCmd("true") }}
	}
	c := base()
	c.StallTimeout = time.Second
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("StallTimeout without BeaconPath accepted")
	}
	c = base()
	c.SpecCommand = func(i, n int) *exec.Cmd { return shCmd("true") }
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("SpecCommand without StallTimeout accepted")
	}
}
