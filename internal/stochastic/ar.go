package stochastic

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"durability/internal/rng"
)

// AR is the auto-regressive model AR(m) of §2.1 example (1):
//
//	v_t = sum_i Phi[i] * v_{t-i} + Sigma * eps_t,   eps_t ~ N(0,1).
//
// The state carries the last m values in a ring buffer so that Step is
// allocation-free and Clone costs O(m).
type AR struct {
	Phi   []float64 // lag coefficients, Phi[0] multiplies v_{t-1}
	Sigma float64   // noise standard deviation
	Start []float64 // initial history v_0, v_{-1}, ...; len must equal len(Phi)
}

// NewAR builds an AR(m) process with constant initial history start.
func NewAR(phi []float64, sigma, start float64) *AR {
	init := make([]float64, len(phi))
	for i := range init {
		init[i] = start
	}
	return &AR{Phi: append([]float64(nil), phi...), Sigma: sigma, Start: init}
}

// ARState is the last-m-values ring buffer. hist[head] is v_{t-1}, the most
// recent value.
type ARState struct {
	hist []float64
	head int
}

// Clone implements State.
func (s *ARState) Clone() State {
	return &ARState{hist: append([]float64(nil), s.hist...), head: s.head}
}

// arStateWire is the exported mirror of ARState for gob: the ring buffer's
// fields are unexported (callers must not reach into the history), so the
// state ships through an explicit encoder instead of gob's default path.
type arStateWire struct {
	Hist []float64
	Head int
}

// GobEncode implements gob.GobEncoder, making AR states snapshot- and
// cluster-shippable like the plain-data states.
func (s *ARState) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(arStateWire{Hist: s.hist, Head: s.head})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (s *ARState) GobDecode(data []byte) error {
	var w arStateWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.Head < 0 || w.Head >= len(w.Hist) {
		return fmt.Errorf("stochastic: decoded ARState head %d outside history of %d", w.Head, len(w.Hist))
	}
	s.hist, s.head = w.Hist, w.Head
	return nil
}

// Current returns v_{t-1}, the most recent value.
func (s *ARState) Current() float64 { return s.hist[s.head] }

// ARValue observes the most recent value of an AR process state.
func ARValue(s State) float64 {
	as, ok := s.(*ARState)
	if !ok {
		panic(fmt.Sprintf("stochastic: ARValue applied to %T", s))
	}
	return as.Current()
}

// Name implements Process.
func (a *AR) Name() string { return fmt.Sprintf("ar(%d)", len(a.Phi)) }

// Initial implements Process.
func (a *AR) Initial() State {
	if len(a.Start) != len(a.Phi) {
		panic("stochastic: AR Start history length must equal len(Phi)")
	}
	return &ARState{hist: append([]float64(nil), a.Start...)}
}

// Step implements Process.
func (a *AR) Step(s State, _ int, src *rng.Source) {
	as := s.(*ARState)
	m := len(a.Phi)
	v := a.Sigma * src.Norm()
	for i := 0; i < m; i++ {
		// hist[(head - i + m) % m] is v_{t-1-i}
		v += a.Phi[i] * as.hist[(as.head-i+m)%m]
	}
	as.head = (as.head + 1) % m
	as.hist[as.head] = v
}

// NewStateVec implements BulkProcess: lane ring buffers share one flat
// lanes*m backing array.
func (a *AR) NewStateVec(lanes int) StateVec { return newARVec(len(a.Phi), lanes) }

// StepVec implements BulkProcess: Step's recurrence per lane, lag terms
// accumulated in the same order so the sum is bit-identical, its
// normals drawn rng.LaneChunk lanes at a time (rng.NormScratch.NormLanes).
func (a *AR) StepVec(sv StateVec, lanes []int, _ []int, src []*rng.Source) {
	av := sv.(*arVec)
	m := len(a.Phi)
	eps := &av.draw.eps
	for len(lanes) > 0 {
		n := av.draw.NormLanes(eps[:], lanes, src)
		for k, l := range lanes[:n] {
			as := &av.lane[l]
			v := a.Sigma * eps[k]
			for i := 0; i < m; i++ {
				v += a.Phi[i] * as.hist[(as.head-i+m)%m]
			}
			as.head = (as.head + 1) % m
			as.hist[as.head] = v
		}
		lanes = lanes[n:]
	}
}
