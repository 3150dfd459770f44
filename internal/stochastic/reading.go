package stochastic

import "reflect"

// A Reading is an observer resolved against one lane vector, so that
// StateVec.Read can fill a whole frontier's readings in one call.
// ResolveReading picks the form once, when a sampler binds a query to
// its lanes: a built-in observer applied to the vec type it reads gets
// a typed loop over the vec's own lane storage, and every other
// observer — closures, custom value functions, any model behind the
// Lanes adapter — is called once per lane on the lane's view. Either
// way each reading is bit for bit what the observer returns on the view.
//
// The zero Reading has no observer; reading with it panics.
type Reading struct {
	obs  Observer
	kind readKind
}

// readKind selects a Reading's loop.
type readKind uint8

const (
	readViews  readKind = iota // obs on each lane's view
	readScalar                 // ScalarValue on a scalar vec
	readQueue1                 // Queue1Len on a queue vec
	readQueue2                 // Queue2Len on a queue vec
	readChain                  // ChainIndex on a chain vec
	readRegime                 // RegimeValue on a regime vec
	readAR                     // ARValue on an AR vec
)

// The code pointers of the observers with typed readings. A function
// value's code pointer identifies the function: a closure that calls
// ScalarValue has its own, so it reads through the views.
var (
	scalarValueFn = funcPC(ScalarValue)
	queue1LenFn   = funcPC(Queue1Len)
	queue2LenFn   = funcPC(Queue2Len)
	chainIndexFn  = funcPC(ChainIndex)
	regimeValueFn = funcPC(RegimeValue)
	arValueFn     = funcPC(ARValue)
)

func funcPC(obs Observer) uintptr { return reflect.ValueOf(obs).Pointer() }

// ResolveReading resolves obs against v. A built-in observer gets its
// typed loop only on the vec type whose states it reads; on any other
// vec it reads through the views and panics on the first lane, as the
// observer itself does on a state of the wrong type.
func ResolveReading(v StateVec, obs Observer) Reading {
	r := Reading{obs: obs}
	pc := funcPC(obs)
	switch v.(type) {
	case *scalarVec:
		if pc == scalarValueFn {
			r.kind = readScalar
		}
	case *queueVec:
		switch pc {
		case queue1LenFn:
			r.kind = readQueue1
		case queue2LenFn:
			r.kind = readQueue2
		}
	case *chainVec:
		if pc == chainIndexFn {
			r.kind = readChain
		}
	case *regimeVec:
		if pc == regimeValueFn {
			r.kind = readRegime
		}
	case *arVec:
		if pc == arValueFn {
			r.kind = readAR
		}
	}
	return r
}

// readViews fills z[p] with r's observer on views[lanes[p]].
func (r Reading) readViews(views []State, lanes []int, z []float64) {
	z = z[:len(lanes)]
	for p, i := range lanes {
		z[p] = r.obs(views[i])
	}
}
