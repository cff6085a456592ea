package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

// with arms a plan for the duration of the test and disarms it after,
// also restoring any plan an outer environment (the CI fault matrix)
// had armed.
func with(t *testing.T, p *Plan) {
	t.Helper()
	prev := active.Load()
	Enable(p)
	t.Cleanup(func() { active.Store(prev) })
}

func TestDisabledIsNil(t *testing.T) {
	prev := active.Load()
	Disable()
	t.Cleanup(func() { active.Store(prev) })
	if Active() {
		t.Fatal("Active after Disable")
	}
	for i := 0; i < 100; i++ {
		if err := Here("any.site"); err != nil {
			t.Fatalf("disabled Here returned %v", err)
		}
		if v := Flip("any.site", 1.5); v != 1.5 {
			t.Fatalf("disabled Flip changed value: %v", v)
		}
	}
}

func TestEveryTriggerFiresDeterministically(t *testing.T) {
	with(t, &Plan{Rules: []Rule{{Site: "s", Kind: KindError, Every: 3, After: 1}}})
	var fired []int
	for i := 1; i <= 10; i++ {
		if Here("s") != nil {
			fired = append(fired, i)
		}
	}
	// After=1 skips visit 1; then every 3rd of the remaining visits:
	// visits 4, 7, 10.
	want := []int{4, 7, 10}
	if len(fired) != len(want) {
		t.Fatalf("fired on visits %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on visits %v, want %v", fired, want)
		}
	}
}

func TestProbabilityTriggerIsSeededAndReplayable(t *testing.T) {
	run := func(seed uint64) []int {
		Enable(&Plan{Seed: seed, Rules: []Rule{{Site: "p", Kind: KindError, Prob: 0.3}}})
		var fired []int
		for i := 1; i <= 200; i++ {
			if Here("p") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	prev := active.Load()
	t.Cleanup(func() { active.Store(prev) })
	a, b, c := run(7), run(7), run(8)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("prob 0.3 fired %d/200 times", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different firing counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at firing %d: visit %d vs %d", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical firing sequences")
	}
}

func TestCountCapsFirings(t *testing.T) {
	with(t, &Plan{Rules: []Rule{{Site: "c", Kind: KindError, Every: 1, Count: 2}}})
	n := 0
	for i := 0; i < 50; i++ {
		if Here("c") != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("count=2 rule fired %d times", n)
	}
}

func TestKinds(t *testing.T) {
	with(t, &Plan{Rules: []Rule{
		{Site: "err", Kind: KindError, Every: 1},
		{Site: "fatal", Kind: KindFatal, Every: 1},
		{Site: "panic", Kind: KindPanic, Every: 1},
		{Site: "delay", Kind: KindDelay, Every: 1, Delay: 5 * time.Millisecond},
		{Site: "flip", Kind: KindFlip, Every: 1},
	}})

	var inj *Injected
	if err := Here("err"); !errors.As(err, &inj) || !inj.IsTransient() {
		t.Fatalf("error site returned %v", err)
	}
	if err := Here("fatal"); !errors.As(err, &inj) || inj.IsTransient() {
		t.Fatalf("fatal site returned %v", err)
	}

	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*PanicValue); !ok {
				t.Errorf("panic site recovered %v", r)
			}
		}()
		Here("panic")
		t.Error("panic site did not panic")
	}()

	start := time.Now()
	if err := Here("delay"); err != nil {
		t.Fatalf("delay site returned %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("delay site did not sleep")
	}

	// Flip rules live only on the value path: Here ignores them, Flip
	// perturbs exactly one mantissa bit.
	if err := Here("flip"); err != nil {
		t.Fatalf("Here on flip-only site returned %v", err)
	}
	v := Flip("flip", 2.0)
	if v == 2.0 {
		t.Fatal("flip did not perturb the value")
	}
	if v < 1.9999 || v > 2.0001 {
		t.Fatalf("flip perturbed too much: %v", v)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("seed=42; eval.invoke:error:p=0.02 ;sim.run:delay:every=10,delay=200us;x:fatal:after=3,every=1,count=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d", p.Seed)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("parsed %d rules", len(p.Rules))
	}
	if r := p.Rules[0]; r.Site != "eval.invoke" || r.Kind != KindError || r.Prob != 0.02 {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := p.Rules[1]; r.Kind != KindDelay || r.Every != 10 || r.Delay != 200*time.Microsecond {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r := p.Rules[2]; r.Kind != KindFatal || r.After != 3 || r.Count != 1 {
		t.Fatalf("rule 2 = %+v", r)
	}

	for _, bad := range []string{
		"seed=x",
		"siteonly",
		"s:explode:p=1",
		"s:error:p=1,bogus=2",
		"s:error:noeq",
		"s:error", // no trigger
		"s:error:p=NaN",
		"s:error:p=-1",
		"s:error:p=5",
		"s:error:p=+Inf",
		"s:error:every=-1",
		"s:error:every=1,after=-1",
		"s:error:every=1,count=-1",
		"s:delay:every=1,delay=-1ms",
		":error:p=1", // empty site
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestDelayHonorsContextCancellation(t *testing.T) {
	with(t, &Plan{Rules: []Rule{{Site: "d", Kind: KindDelay, Every: 1, Delay: time.Minute}}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := HereCtx(ctx, "d")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted delay returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("delay ignored the context deadline")
	}
}

func TestHangBlocksUntilCancel(t *testing.T) {
	with(t, &Plan{Rules: []Rule{{Site: "h", Kind: KindHang, Every: 1}}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- HereCtx(ctx, "h") }()
	select {
	case err := <-done:
		t.Fatalf("hang returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled hang returned %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hang did not unblock on cancellation")
	}
}

func TestParseHang(t *testing.T) {
	p, err := Parse("core.dataset.shard:hang:every=1,after=2,count=1")
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if r.Kind != KindHang || r.Every != 1 || r.After != 2 || r.Count != 1 {
		t.Fatalf("rule = %+v", r)
	}
	if r.Kind.String() != "hang" {
		t.Fatalf("String() = %q", r.Kind.String())
	}
}
