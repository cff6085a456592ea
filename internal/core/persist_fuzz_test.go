package core

import (
	"bytes"
	"testing"
)

// FuzzLoadModels throws arbitrary bytes at the models-file loader — the
// file dsed serves and hot-reloads. The invariants: LoadModels never
// panics, and anything it accepts re-saves to a file that loads again
// and re-saves to the same bytes, so a parse can never invent a model
// set it would not itself write.
func FuzzLoadModels(f *testing.F) {
	opts := DefaultOptions()
	opts.TrainSamples = 60
	opts.TraceLen = 8000
	opts.Benchmarks = []string{"gzip"}
	e, err := New(opts)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.Train(); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveModels(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	tampered := append([]byte{}, saved...)
	tampered[len(tampered)/3] ^= 0x01
	f.Add(tampered)
	f.Add(bytes.Replace(saved, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add([]byte(`{"version":1,"performance":{"gzip":null},"power":{"gzip":null}}`))
	f.Add([]byte{})

	load := func(t *testing.T, data []byte) (*Explorer, error) {
		x, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return x, x.LoadModels(bytes.NewReader(data))
	}
	save := func(t *testing.T, x *Explorer) []byte {
		var out bytes.Buffer
		if err := x.SaveModels(&out); err != nil {
			t.Fatalf("re-saving accepted models: %v", err)
		}
		return out.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := load(t, data)
		if err != nil {
			return
		}
		first := save(t, x)
		y, err := load(t, first)
		if err != nil {
			t.Fatalf("reloading re-saved models: %v", err)
		}
		if second := save(t, y); !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the models file:\n%s\nvs\n%s", first, second)
		}
	})
}
