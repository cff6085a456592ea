package fault

import "testing"

// FuzzParse feeds arbitrary specs to Parse: no input may panic, and
// every accepted plan must hold only rules that name a site, have a
// trigger, and keep every value in range.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"seed=2007;eval.invoke:error:p=0.01;eval.invoke:panic:p=0.003;eval.invoke:delay:p=0.01,delay=200us",
		"core.dataset.shard:hang:every=1,after=2,count=1",
		"x:flip:every=3",
		"s:error:p=NaN",
		"s:error:every=-1",
		":fatal:p=1",
		"seed=x",
		";;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		for i, r := range p.Rules {
			if r.Site == "" || r.Kind > KindHang ||
				!(r.Prob >= 0 && r.Prob <= 1) || r.Every < 0 || r.After < 0 ||
				r.Count < 0 || r.Delay < 0 || (r.Prob == 0 && r.Every == 0) {
				t.Fatalf("Parse(%q) accepted rule %d out of bounds: %+v", spec, i, r)
			}
		}
	})
}
