package stochastic

// pinned adapts a snapshot into a Process whose Initial is that snapshot,
// so samplers (which always start from Initial) simulate futures of a
// live state. Time restarts at 1 for each run: a standing query's horizon
// is a sliding window measured from "now". Every other method, the bulk
// ones included, forwards to the model.
type pinned struct {
	BulkProcess
	st State
}

func (p pinned) Initial() State { return p.st.Clone() }

// Pin returns a process with proc's dynamics whose Initial state is the
// given snapshot (cloned on every Initial call). It is how the standing-
// query engine and the execution backends start simulations from a live
// state instead of the model's canonical initial state. The result keeps
// proc's bulk form (AsBulk): only Initial changes, and the kernel reads
// Initial once per run.
func Pin(proc Process, st State) BulkProcess {
	return pinned{BulkProcess: AsBulk(proc), st: st}
}
