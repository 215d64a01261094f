// Package reach is the transitive-reachability engine shared by the
// hotpathalloc and detrange analyzers. Both enforce contracts of the
// form "functions annotated X must not reach construct Y through any
// chain of static calls within the module": reach computes, per
// function, a flattened summary of every forbidden site reachable from
// its body, exports the summaries as object facts so the contract
// crosses package boundaries, and reports at the annotated roots.
//
// Summaries are flattened before export: a fact on an exported function
// already contains the sites contributed by its unexported transitive
// callees, so dependent packages never need visibility into this
// package's internals. Traversal follows only static calls (direct
// calls and method calls with a concrete receiver resolved by
// go/types); calls through interface values, function-typed variables,
// and goroutine handoffs are invisible to it — the documented blind
// spot, covered dynamically by the AllocsPerRun contract tests.
package reach

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"repro/tools/spmvlint/internal/lintutil"
)

// Site is one forbidden construct, as seen from some function that
// reaches it. Desc and Loc are fixed at the construct; Via grows one
// callee name per package boundary the summary is lifted across.
type Site struct {
	Desc string   // e.g. "make([]float64)"
	Loc  string   // "plan.go:131" — file base + line of the construct
	Via  []string // call chain from the summarized function, outermost first
}

// Summary is the per-function fact. Each analyzer supplies its own
// concrete type so its facts never collide with another analyzer's.
type Summary interface {
	analysis.Fact
	Sites() []Site
	SetSites([]Site)
}

// Config parameterizes one analyzer over the engine.
type Config struct {
	// Label prefixes diagnostics, e.g. "hot path".
	Label string
	// RootMarker annotates the functions whose transitive closure is
	// checked (lintutil.MarkHotPath, lintutil.MarkDeterministic).
	RootMarker string
	// PruneMarker, when non-empty, annotates functions the traversal
	// must not enter (cold fault paths).
	PruneMarker string
	// Classify reports whether the node is a forbidden construct.
	Classify func(pass *analysis.Pass, n ast.Node) (desc string, bad bool)
	// ExternalCall reports whether a call to a function outside the
	// module (no fact, foreign package) is itself forbidden, e.g.
	// fmt.Sprintf for hot paths or time.Now for deterministic ones.
	ExternalCall func(fn *types.Func) (desc string, bad bool)
	// TrustedCall (optional) names functions outside the package whose
	// calls are neither reported nor followed: their contract, not their
	// body, is what the caller relies on.
	TrustedCall func(fn *types.Func) bool
	// NewSummary returns a fresh fact of the analyzer's concrete type.
	NewSummary func() Summary
	// MaxSites caps each exported summary (0 means 32): one broken leaf
	// reached by everything must not balloon every fact above it.
	MaxSites int
}

// site pairs a Site with the position it is reported at in the current
// package: the construct itself for direct sites, the outgoing call
// expression for lifted ones.
type site struct {
	Site
	pos token.Pos
}

type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	direct  []site        // forbidden constructs in the body
	callees []*types.Func // static callees, in source order
	calls   map[*types.Func]token.Pos
	pruned  bool
	root    bool
}

// Run executes the engine for one package.
func (c *Config) Run(pass *analysis.Pass) (interface{}, error) {
	maxSites := c.MaxSites
	if maxSites == 0 {
		maxSites = 32
	}

	funcs := make(map[*types.Func]*funcInfo)
	var order []*funcInfo
	for _, f := range lintutil.NonTestFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{
				decl:   fd,
				obj:    obj,
				calls:  make(map[*types.Func]token.Pos),
				pruned: c.PruneMarker != "" && lintutil.FuncHas(fd, c.PruneMarker),
				root:   lintutil.FuncHas(fd, c.RootMarker),
			}
			funcs[obj] = fi
			order = append(order, fi)
		}
	}

	for _, fi := range order {
		c.scanBody(pass, fi)
	}

	// Flatten: union of direct sites over the locally-reachable set plus
	// lifted sites at module-boundary calls. Per-function BFS keeps
	// cycles trivially correct.
	flat := make(map[*types.Func][]site)
	var flatten func(fi *funcInfo) []site
	flatten = func(fi *funcInfo) []site {
		if s, ok := flat[fi.obj]; ok {
			return s
		}
		// Each queue entry remembers the call expression in fi that its
		// chain entered through (reports anchor there) and the local
		// chain of hops taken.
		type hop struct {
			fn    *funcInfo
			pos   token.Pos // call site in fi; 0 for fi itself
			chain []string
		}
		visited := map[*funcInfo]bool{fi: true}
		queue := []hop{{fn: fi}}
		var out []site
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, s := range cur.fn.direct {
				s := s
				if cur.fn != fi {
					s.pos = cur.pos
					s.Via = append(append([]string{}, cur.chain...), s.Via...)
				}
				out = append(out, s)
			}
			for _, callee := range cur.fn.callees {
				target, ok := funcs[callee]
				if !ok {
					// Module-internal callee in another package: its
					// flattened fact (if any) carries the sites.
					sum := c.NewSummary()
					if callee.Pkg() != nil && callee.Pkg() != pass.Pkg && pass.ImportObjectFact(callee, sum) {
						pos, chain := cur.pos, cur.chain
						if cur.fn == fi {
							pos, chain = cur.fn.calls[callee], nil
						}
						for _, is := range sum.Sites() {
							via := append(append([]string{}, chain...), funcName(callee))
							out = append(out, site{
								Site: Site{Desc: is.Desc, Loc: is.Loc, Via: append(via, is.Via...)},
								pos:  pos,
							})
						}
					}
					continue
				}
				if target.pruned || visited[target] {
					continue
				}
				visited[target] = true
				pos, chain := cur.pos, cur.chain
				if cur.fn == fi {
					pos = cur.fn.calls[callee]
				}
				queue = append(queue, hop{
					fn:    target,
					pos:   pos,
					chain: append(append([]string{}, chain...), funcName(callee)),
				})
			}
		}
		out = dedupe(out)
		if len(out) > maxSites {
			out = out[:maxSites]
		}
		flat[fi.obj] = out
		return out
	}

	for _, fi := range order {
		sites := flatten(fi)
		if len(sites) == 0 || fi.pruned {
			continue
		}
		sum := c.NewSummary()
		exp := make([]Site, len(sites))
		for i, s := range sites {
			exp[i] = s.Site
		}
		sum.SetSites(exp)
		pass.ExportObjectFact(fi.obj, sum)
	}

	for _, fi := range order {
		if !fi.root {
			continue
		}
		for _, s := range flatten(fi) {
			if len(s.Via) == 0 {
				pass.Reportf(s.pos, "%s: %s", c.Label, s.Desc)
				continue
			}
			via := ""
			if len(s.Via) > 1 {
				via = " via " + strings.Join(s.Via, " → ")
			}
			pass.Reportf(s.pos, "%s: call to %s reaches %s (%s)%s",
				c.Label, s.Via[0], s.Desc, s.Loc, via)
		}
	}
	return nil, nil
}

// scanBody classifies fi's body and records static callees. Function
// literal bodies are not traversed: a closure built here runs on some
// other schedule (a worker loop, a sort comparator), so its calls are
// not part of this function's own execution — for hot paths the
// literal itself is already a violation, and for determinism deferred
// work is outside the contract. A nondeterministic closure invoked
// synchronously is the documented blind spot this buys.
func (c *Config) scanBody(pass *analysis.Pass, fi *funcInfo) {
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			if desc, bad := c.Classify(pass, n); bad {
				fi.direct = append(fi.direct, site{
					Site: Site{Desc: desc, Loc: shortPos(pass.Fset, n.Pos())},
					pos:  n.Pos(),
				})
			}
			return false
		}
		if desc, bad := c.Classify(pass, n); bad {
			fi.direct = append(fi.direct, site{
				Site: Site{Desc: desc, Loc: shortPos(pass.Fset, n.Pos())},
				pos:  n.Pos(),
			})
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := typeutil.Callee(pass.TypesInfo, call)
		fn, ok := callee.(*types.Func)
		if !ok {
			return true
		}
		fn = fn.Origin()
		if c.TrustedCall != nil && fn.Pkg() != pass.Pkg && c.TrustedCall(fn) {
			return true
		}
		if c.ExternalCall != nil && fn.Pkg() != pass.Pkg {
			if desc, bad := c.ExternalCall(fn); bad {
				fi.direct = append(fi.direct, site{
					Site: Site{Desc: desc, Loc: shortPos(pass.Fset, call.Pos())},
					pos:  call.Pos(),
				})
				return true
			}
		}
		if _, seen := fi.calls[fn]; !seen {
			fi.calls[fn] = call.Pos()
			fi.callees = append(fi.callees, fn)
		}
		return true
	})
}

func dedupe(sites []site) []site {
	sort.SliceStable(sites, func(i, j int) bool {
		if sites[i].pos != sites[j].pos {
			return sites[i].pos < sites[j].pos
		}
		return sites[i].Desc < sites[j].Desc
	})
	out := sites[:0]
	seen := make(map[string]bool)
	for _, s := range sites {
		key := fmt.Sprintf("%d|%s|%s", s.pos, s.Desc, s.Loc)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

func funcName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
