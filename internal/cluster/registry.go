package cluster

import (
	"errors"
	"fmt"
	"sync"

	"durability/internal/stochastic"
)

// ModelFactory builds a model and its named observers. Processes are not
// serialisable (they may hold neural networks), so only names travel over
// the wire: servers, coordinators and workers each build their models
// locally from the same factories.
type ModelFactory func() (stochastic.Process, map[string]stochastic.Observer, error)

// Registry maps model names to factories. Workers must register every
// model a coordinator will reference.
type Registry map[string]ModelFactory

// ErrUnknownModel reports a model name the registry does not hold.
var ErrUnknownModel = errors.New("unknown model")

// Model is one built registry entry.
type Model struct {
	Proc      stochastic.Process
	Observers map[string]stochastic.Observer
}

// Models builds each registered model at most once and shares it among
// its callers. Process implementations are safe for concurrent Step calls
// on distinct states, and one shared value is what lets the sampler keep
// its lane kernels across calls (core's workspace reuse matches models by
// value). A factory runs under its entry's own once, never under the
// table lock, so a heavy build does not stall lookups of other models.
type Models struct {
	reg   Registry
	mu    sync.Mutex
	built map[string]*builtModel
}

type builtModel struct {
	factory ModelFactory
	once    sync.Once
	m       Model
	err     error
}

// NewModels wraps a registry in a build-once table.
func NewModels(reg Registry) *Models {
	return &Models{reg: reg, built: make(map[string]*builtModel)}
}

// Get returns the named model, building it on first use. An unregistered
// name fails with an error wrapping ErrUnknownModel. A failed build (the
// factory errs or registers no observers) is evicted, so the next Get
// retries it; callers that raced the failing build all see its error.
func (t *Models) Get(name string) (Model, error) {
	t.mu.Lock()
	b, ok := t.built[name]
	if !ok {
		factory, known := t.reg[name]
		if !known {
			t.mu.Unlock()
			return Model{}, fmt.Errorf("%w %q", ErrUnknownModel, name)
		}
		b = &builtModel{factory: factory}
		t.built[name] = b
	}
	t.mu.Unlock()

	b.once.Do(func() {
		proc, observers, err := b.factory()
		switch {
		case err != nil:
			b.err = fmt.Errorf("building model %q: %v", name, err)
		case len(observers) == 0:
			b.err = fmt.Errorf("model %q registered no observers", name)
		default:
			b.m = Model{Proc: proc, Observers: observers}
		}
	})
	if b.err != nil {
		t.mu.Lock()
		if t.built[name] == b {
			delete(t.built, name)
		}
		t.mu.Unlock()
		return Model{}, b.err
	}
	return b.m, nil
}
