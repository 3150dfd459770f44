package cluster

import (
	"errors"
	"sync"
	"testing"

	"durability/internal/stochastic"
)

// A model is built once and shared; a failed build is evicted and
// retried by the next lookup; an unknown name is ErrUnknownModel.
func TestModelsBuildOnceEvictOnError(t *testing.T) {
	builds := 0
	models := NewModels(Registry{
		"walk": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			builds++
			if builds == 1 {
				return nil, nil, errors.New("transient")
			}
			return &stochastic.RandomWalk{Sigma: 1}, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
		"mute": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return &stochastic.RandomWalk{Sigma: 1}, nil, nil
		},
	})
	if _, err := models.Get("walk"); err == nil {
		t.Fatal("a failing build returned a model")
	}
	first, err := models.Get("walk")
	if err != nil {
		t.Fatalf("the failed build was not retried: %v", err)
	}
	again, err := models.Get("walk")
	if err != nil || again.Proc != first.Proc || builds != 2 {
		t.Fatalf("second lookup rebuilt the model (builds %d, err %v)", builds, err)
	}
	if _, err := models.Get("mute"); err == nil {
		t.Fatal("a model without observers was accepted")
	}
	if _, err := models.Get("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: err = %v, want ErrUnknownModel", err)
	}
}

// Concurrent first lookups share one build and one model value.
func TestModelsConcurrentGet(t *testing.T) {
	builds := 0
	models := NewModels(Registry{
		"walk": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			builds++ // runs under the entry's once
			return &stochastic.RandomWalk{Sigma: 1}, map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
	})
	procs := make([]stochastic.Process, 8)
	var wg sync.WaitGroup
	for i := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := models.Get("walk")
			if err != nil {
				t.Error(err)
			}
			procs[i] = m.Proc
		}()
	}
	wg.Wait()
	for _, p := range procs {
		if p != procs[0] {
			t.Fatal("concurrent lookups got different model values")
		}
	}
	if builds != 1 {
		t.Fatalf("built %d times, want once", builds)
	}
}
