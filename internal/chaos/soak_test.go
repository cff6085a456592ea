package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/serve"
)

// soakOptions mirrors the core package's checkpoint-test configuration:
// small but real, with four dataset chunks per half-shard so
// count-bounded kill/hang rules have depth to land in.
func soakOptions(dir string) core.Options {
	opts := core.DefaultOptions()
	opts.TrainSamples = 40
	opts.ValidationSamples = 5
	opts.TraceLen = 2000
	opts.Benchmarks = []string{"gzip"}
	opts.Workers = 2
	opts.CheckpointEvery = 5
	opts.CheckpointDir = dir
	opts.Resume = true
	return opts
}

// bothShards runs f for shard 0 and 1 concurrently — two workers of a
// distributed run sharing one fault plan, as two processes would share
// one inherited REPRO_FAULT_PLAN.
func bothShards(ctx context.Context, f func(ctx context.Context, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(ctx, i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestSoakDistributedDatasetBitIdentical is the distributed-run soak:
// dataset shards and their merge, run round after round under
// randomized seeded fault plans that compose evaluator errors, panics
// and delays, a worker kill, a worker hang (recoverable only by
// cancelling the attempt, the in-process analogue of the coordinator's
// stall-kill), a checkpoint-write failure and a beacon-write crash.
// Every round must converge within its budget and produce a training
// checkpoint byte-identical to the fault-free golden run; afterwards no
// goroutine may be left behind.
func TestSoakDistributedDatasetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round soak")
	}
	if fault.Active() {
		t.Skip("soak arms its own plans; golden run needs a fault-free world")
	}

	goldenDir := t.TempDir()
	golden, err := core.New(soakOptions(goldenDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Train(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "chaos")
	round := func(ctx context.Context, r int, plan *fault.Plan) error {
		// Each round is a fresh distributed run: wipe every shard file,
		// beacon and merged checkpoint from the previous one.
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := bothShards(ctx, func(ctx context.Context, i int) error {
			// A fresh explorer per attempt is a worker restart: it
			// resumes from the shard checkpoint.
			_, err := chaos.RunToCompletion(ctx, 10*time.Second, 8, func(actx context.Context) error {
				w, err := core.New(soakOptions(dir))
				if err != nil {
					return err
				}
				return w.BuildDatasetShard(actx, i, 2)
			})
			return err
		}); err != nil {
			return fmt.Errorf("dataset shards: %w", err)
		}
		if _, err := chaos.RunToCompletion(ctx, 10*time.Second, 8, func(context.Context) error {
			w, err := core.New(soakOptions(dir))
			if err != nil {
				return err
			}
			return w.MergeDatasetShards(2)
		}); err != nil {
			return fmt.Errorf("dataset merge: %w", err)
		}
		return chaos.ByteIdentical(filepath.Join(dir, "train-gzip.ckpt"), filepath.Join(goldenDir, "train-gzip.ckpt"))
	}

	rep, err := chaos.Soak(context.Background(), chaos.Options{
		Seed:   2026,
		Rounds: 2,
		Budget: 2 * time.Minute,
		Menu:   chaos.DefaultDatasetMenu(),
	}, round)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections == 0 {
		t.Fatal("soak injected no faults — the drill tested nothing")
	}
	for _, rr := range rep.Rounds {
		t.Logf("round %d: plan %q, %d faults, %.1fs", rr.Round, rr.Plan, rr.Injections, rr.Seconds)
	}
}

// serveModels trains one tiny explorer and returns its saved model
// bytes — the dsed reload path minus the filesystem.
func serveModels(t *testing.T) []byte {
	t.Helper()
	e, err := core.New(soakOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSoakServeUnderLoad drills a live server: concurrent clients keep
// requesting predictions while the plan injects request-path errors,
// latency and count-bounded request hangs (survivable because the
// handler's fault site is bounded by the server's request deadline).
// Every response must be an orderly
// status, a healthy majority must succeed, the health endpoint must
// answer after the storm, and no handler goroutine may leak.
func TestSoakServeUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round soak")
	}
	if fault.Active() {
		t.Skip("soak arms its own plans")
	}
	models := serveModels(t)
	loader := func() (*core.Explorer, error) {
		e, err := core.New(soakOptions(""))
		if err != nil {
			return nil, err
		}
		if err := e.LoadModels(bytes.NewReader(models)); err != nil {
			return nil, err
		}
		return e, nil
	}

	const clients, perClient = 4, 25
	round := func(ctx context.Context, r int, plan *fault.Plan) error {
		s, err := serve.New(loader, serve.Options{RequestTimeout: time.Second})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		// Clients give up after 500ms; a hung handler is freed by the
		// server's own deadline shortly after, never left stuck.
		client := &http.Client{Timeout: 500 * time.Millisecond}
		var ok, rejected atomic.Int64
		err = bothShardsN(ctx, clients, func(ctx context.Context, c int) error {
			for i := 0; i < perClient; i++ {
				body, _ := json.Marshal(serve.PointRequest{Bench: "gzip", Indices: []int{(c*perClient + i) * 97}})
				resp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					rejected.Add(1) // client-side timeout: the hang rule
					continue
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusInternalServerError, http.StatusTooManyRequests,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					rejected.Add(1) // orderly refusals under injected faults
				default:
					return fmt.Errorf("request %d/%d: unexpected status %d", c, i, resp.StatusCode)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if got := ok.Load(); got < clients*perClient/4 {
			return fmt.Errorf("only %d of %d requests succeeded (%d orderly failures)",
				got, clients*perClient, rejected.Load())
		}
		// The storm over, the server must still report healthy.
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			return fmt.Errorf("healthz after load: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz after load: status %d", resp.StatusCode)
		}
		return nil
	}

	rep, err := chaos.Soak(context.Background(), chaos.Options{
		Seed:   2026,
		Rounds: 3,
		Budget: time.Minute,
		Menu:   chaos.DefaultServeMenu(),
	}, round)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections == 0 {
		t.Fatal("soak injected no faults — the drill tested nothing")
	}
	for _, rr := range rep.Rounds {
		t.Logf("round %d: plan %q, %d faults, %.1fs", rr.Round, rr.Plan, rr.Injections, rr.Seconds)
	}
}

// bothShardsN generalizes bothShards to n concurrent workers.
func bothShardsN(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(ctx, i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
