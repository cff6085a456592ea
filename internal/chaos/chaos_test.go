package chaos

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestRandomPlanDeterministicPerSeed(t *testing.T) {
	menu := DefaultDatasetMenu()
	a := RandomPlan(42, menu)
	b := RandomPlan(42, menu)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different plans:\n%s\n%s", PlanString(a), PlanString(b))
	}
	c := RandomPlan(43, menu)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds drew identical plans: %s", PlanString(a))
	}
}

// TestRandomPlanArmsEveryMenuEntry: a drawn plan must keep every spec
// live — a probabilistic rule with a zero probability would silently
// drop a fault class from the drill.
func TestRandomPlanArmsEveryMenuEntry(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		for _, menu := range []Menu{DefaultDatasetMenu(), DefaultServeMenu()} {
			p := RandomPlan(seed, menu)
			if len(p.Rules) != len(menu) {
				t.Fatalf("seed %d: %d rules from %d specs", seed, len(p.Rules), len(menu))
			}
			for i, r := range p.Rules {
				spec := menu[i]
				if r.Site != spec.Site || r.Kind != spec.Kind {
					t.Fatalf("seed %d rule %d: %s:%v, want %s:%v", seed, i, r.Site, r.Kind, spec.Site, spec.Kind)
				}
				if spec.MaxProb > 0 {
					if r.Prob < spec.MaxProb/4 || r.Prob > spec.MaxProb {
						t.Fatalf("seed %d rule %d: prob %v outside [%v/4, %v]", seed, i, r.Prob, spec.MaxProb, spec.MaxProb)
					}
				} else if r.Every != spec.Every {
					t.Fatalf("seed %d rule %d: every %d, want %d", seed, i, r.Every, spec.Every)
				}
				if r.After < 0 || r.After > spec.MaxAfter {
					t.Fatalf("seed %d rule %d: after %d outside [0, %d]", seed, i, r.After, spec.MaxAfter)
				}
				if spec.MaxDelay > 0 && (r.Delay < spec.MaxDelay/4 || r.Delay > spec.MaxDelay) {
					t.Fatalf("seed %d rule %d: delay %v outside [%v/4, %v]", seed, i, r.Delay, spec.MaxDelay, spec.MaxDelay)
				}
				if r.Count != spec.Count {
					t.Fatalf("seed %d rule %d: count %d, want %d", seed, i, r.Count, spec.Count)
				}
			}
		}
	}
}

// TestDefaultSweepMenuCoversFaultKinds: the distributed-run drill menu,
// DefaultDatasetMenu, must compose error, panic, fatal, delay and hang
// rules in one plan.
func TestDefaultSweepMenuCoversFaultKinds(t *testing.T) {
	kinds := map[fault.Kind]bool{}
	for _, spec := range DefaultDatasetMenu() {
		kinds[spec.Kind] = true
	}
	for _, k := range []fault.Kind{fault.KindError, fault.KindPanic, fault.KindFatal, fault.KindDelay, fault.KindHang} {
		if !kinds[k] {
			t.Errorf("DefaultDatasetMenu has no %v rule", k)
		}
	}
}

func TestPlanStringMentionsEveryRule(t *testing.T) {
	p := RandomPlan(7, DefaultDatasetMenu())
	s := PlanString(p)
	if !strings.HasPrefix(s, "seed=") {
		t.Fatalf("plan string %q does not lead with the seed", s)
	}
	for _, r := range p.Rules {
		if !strings.Contains(s, r.Site+":"+r.Kind.String()) {
			t.Errorf("plan string %q omits %s:%v", s, r.Site, r.Kind)
		}
	}
}

// TestRunToCompletionUnhangsAndConverges: an operation that hangs on
// its context (the in-process analogue of a worker stuck at a
// KindHang site) is cancelled by the per-attempt timeout; the next
// attempt succeeds.
func TestRunToCompletionUnhangsAndConverges(t *testing.T) {
	calls := 0
	attempts, err := RunToCompletion(context.Background(), 50*time.Millisecond, 5, func(ctx context.Context) error {
		calls++
		if calls == 1 {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("RunToCompletion = (%d, %v), want (2, nil)", attempts, err)
	}
}

func TestRunToCompletionReportsExhaustion(t *testing.T) {
	boom := errors.New("boom")
	attempts, err := RunToCompletion(context.Background(), time.Second, 3, func(context.Context) error { return boom })
	if attempts != 3 || !errors.Is(err, boom) {
		t.Fatalf("RunToCompletion = (%d, %v), want (3, wrapped boom)", attempts, err)
	}
}

func TestRunToCompletionHonorsParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunToCompletion(ctx, time.Second, 10, func(ctx context.Context) error { return ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunToCompletion under cancelled parent = %v, want context.Canceled", err)
	}
}

// TestSoakRestoresPriorPlan: a soak must not leave its drill plan armed
// — the global fault state belongs to whoever armed it first.
func TestSoakRestoresPriorPlan(t *testing.T) {
	prior := fault.Current()
	defer fault.Enable(prior)
	mine := &fault.Plan{Rules: []fault.Rule{{Site: "nowhere", Kind: fault.KindError, Every: 1}}}
	fault.Enable(mine)

	var saw *fault.Plan
	rep, err := Soak(context.Background(), Options{Seed: 1, Rounds: 2, Menu: DefaultDatasetMenu(), Budget: time.Second},
		func(ctx context.Context, r int, plan *fault.Plan) error {
			saw = fault.Current()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("%d round reports, want 2", len(rep.Rounds))
	}
	if saw == mine {
		t.Fatal("round ran under the prior plan, not the drawn one")
	}
	if fault.Current() != mine {
		t.Fatalf("soak left plan %v armed, want the prior plan restored", fault.Current())
	}
}

func TestSoakReportsRoundFailure(t *testing.T) {
	if fault.Active() {
		t.Skip("soak arms its own plans")
	}
	boom := errors.New("round broke")
	rep, err := Soak(context.Background(), Options{Seed: 9, Rounds: 3, Menu: DefaultDatasetMenu(), Budget: time.Second},
		func(ctx context.Context, r int, plan *fault.Plan) error {
			if r == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("Soak = %v, want wrapped round error", err)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("%d round reports before failure, want 2", len(rep.Rounds))
	}
	if !strings.Contains(err.Error(), "seed=") {
		t.Fatalf("failure %q does not carry the replay plan", err)
	}
}

func TestSoakRequiresMenu(t *testing.T) {
	if _, err := Soak(context.Background(), Options{}, func(context.Context, int, *fault.Plan) error { return nil }); err == nil {
		t.Fatal("empty menu accepted")
	}
}
