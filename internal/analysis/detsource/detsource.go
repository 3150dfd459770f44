// Package detsource forbids nondeterministic sources in the packages
// whose output must be bit-for-bit reproducible.
//
// The repository's headline guarantees — local == cluster equality,
// replayed recovery == uninterrupted serving — hold only if the sampling
// path never consults a source of nondeterminism. Inside the
// deterministic packages (internal/core, exec, opt, stream, rng,
// stochastic — the models' Step/StepVec bodies are on the bit-for-bit
// path of every sampler — and vmath, the math those bodies call) this
// analyzer reports:
//
//   - calls to time.Now, time.Since or time.Until (wall clock);
//   - any use of math/rand or math/rand/v2 (globally seeded generators —
//     internal/rng is the only sanctioned randomness substrate);
//   - select statements with two or more value-binding receive cases:
//     when several channels are ready the runtime picks one at random,
//     so feeding bound receive values into counter state makes the
//     merge order scheduling-dependent. Pure signal waits
//     (case <-ctx.Done(), case <-ch with no binding) stay legal.
//
// Timing telemetry that never feeds sampled values is not an exception
// to suppress but a seam to route through: internal/telemetry exposes
// Now and Since as the one sanctioned wall-clock sink, and its import
// path deliberately falls outside the deterministic set, so deterministic
// packages may call telemetry.Now freely while every raw time.Now keeps
// failing the build. This keeps "who reads the clock" greppable at a
// single package boundary instead of scattered across ignore comments.
package detsource

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"durability/internal/analysis"
)

// Analyzer is the detsource pass.
var Analyzer = &analysis.Analyzer{
	Name: "detsource",
	Doc:  "forbid wall-clock, global math/rand and racing selects in deterministic packages",
	Run:  run,
}

// deterministicPath matches the import paths whose sources must stay
// deterministic. Fixture packages under testdata/src reuse the same
// shapes (e.g. "internal/core/bad").
var deterministicPath = regexp.MustCompile(`(^|/)internal/(core|exec|opt|stream|rng|stochastic|vmath)(/|$)`)

// wallClockFuncs are the time package functions that read the wall
// clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	if !deterministicPath.MatchString(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch impPath(imp) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "deterministic package imports %s; use internal/rng, the seeded substream substrate", impPath(imp))
			}
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if obj := pass.ObjectOf(n.Sel); obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "time":
					if _, isFunc := obj.(*types.Func); isFunc && wallClockFuncs[n.Sel.Name] {
						pass.Reportf(n.Pos(), "deterministic package reads the wall clock via time.%s; route timing through internal/telemetry (Now/Since), the sanctioned clock seam", n.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					pass.Reportf(n.Pos(), "deterministic package uses %s.%s; use internal/rng, the seeded substream substrate", obj.Pkg().Path(), n.Sel.Name)
				}
			}
		case *ast.SelectStmt:
			if bound := bindingReceives(n); len(bound) >= 2 {
				pass.Reportf(n.Pos(), "select binds values from %d receive cases; ready-channel choice is randomized, so downstream state depends on scheduling — merge through one ordered channel instead", len(bound))
			}
		}
		return true
	})
	return nil
}

// bindingReceives returns the comm clauses that bind a received value
// (case v := <-ch / case v = <-ch). Signal-only receives (case <-ch)
// and sends do not count: they cannot leak the runtime's random
// ready-case choice into data.
func bindingReceives(sel *ast.SelectStmt) []*ast.CommClause {
	var out []*ast.CommClause
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		switch comm := cc.Comm.(type) {
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if recv, ok := comm.Rhs[0].(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
					out = append(out, cc)
				}
			}
		}
	}
	return out
}

func impPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	return s[1 : len(s)-1]
}
