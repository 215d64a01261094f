// Package hotpathalloc pins the repo's 0 allocs/op contract statically:
// a function annotated //spmv:hotpath — and everything it statically
// calls within the module — must not contain allocating constructs.
// The AllocsPerRun contract tests verify the branches they exercise;
// this analyzer verifies every branch at every call site.
//
// Forbidden in a hot path (directly or transitively):
//
//   - make, new, append (growth cannot be proven statically, so any
//     append is out — hot paths write through preallocated buffers)
//   - map, slice, and &composite literals
//   - function literals (closures capture, and captures escape)
//   - defer and go statements
//   - explicit conversions to interface types
//   - string concatenation and string<->[]byte/[]rune conversions
//   - calls into fmt, log, log/slog, errors, sort, strings, strconv —
//     the formatting/boxing packages that allocate by design — except
//     strconv.ParseFloat and strconv.AppendFloat (see noAllocFuncs)
//
// Functions annotated //spmv:coldpath (fault branches, pre-verified
// cold) are not traversed. Dynamic calls — through interface values or
// stored func values — are invisible; that blind spot stays covered by
// the AllocsPerRun tests.
package hotpathalloc

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/tools/spmvlint/internal/lintutil"
	"repro/tools/spmvlint/internal/reach"
)

// Summary is the flattened per-function fact: every allocating site
// reachable from the function through static calls in the module.
type Summary struct {
	Found []reach.Site
}

func (*Summary) AFact()                    {}
func (s *Summary) Sites() []reach.Site     { return s.Found }
func (s *Summary) SetSites(v []reach.Site) { s.Found = v }
func (s *Summary) String() string          { return "hotpathalloc" }

// allocPkgs are packages whose entry points allocate by design.
var allocPkgs = map[string]bool{
	"fmt":      true,
	"log":      true,
	"log/slog": true,
	"errors":   true,
	"sort":     true,
	"strings":  true,
	"strconv":  true,
}

// noAllocFuncs are the entry points of allocPkgs that a hot path may
// call, taken on their contract (their bodies append, which the
// analyzer cannot tell from growth): strconv.ParseFloat allocates only the error it returns for a
// literal it refuses, and strconv.AppendFloat writes into the slice it
// is given and grows it only when its capacity runs out, which the
// caller rules out by handing it a preallocated window. The JSON vector
// codec (internal/wire) is built on the pair.
var noAllocFuncs = map[string]bool{
	"strconv.ParseFloat":  true,
	"strconv.AppendFloat": true,
}

var engine = &reach.Config{
	Label:       "hot path",
	RootMarker:  lintutil.MarkHotPath,
	PruneMarker: lintutil.MarkColdPath,
	Classify:    classify,
	ExternalCall: func(fn *types.Func) (string, bool) {
		if fn.Pkg() != nil && allocPkgs[fn.Pkg().Path()] {
			return "call to " + fn.Pkg().Name() + "." + fn.Name() + " (allocates)", true
		}
		return "", false
	},
	TrustedCall: func(fn *types.Func) bool {
		return fn.Pkg() != nil && noAllocFuncs[fn.Pkg().Path()+"."+fn.Name()]
	},
	NewSummary: func() reach.Summary { return new(Summary) },
}

var Analyzer = &analysis.Analyzer{
	Name:      "hotpathalloc",
	Doc:       "reports allocating constructs reachable from //spmv:hotpath functions",
	Run:       engine.Run,
	FactTypes: []analysis.Fact{new(Summary)},
}

func classify(pass *analysis.Pass, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		return classifyCall(pass, n)
	case *ast.CompositeLit:
		switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
		case *types.Map:
			return "map literal", true
		case *types.Slice:
			return "slice literal", true
		}
	case *ast.UnaryExpr:
		if n.Op.String() == "&" {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				return "&composite literal (heap escape)", true
			}
		}
	case *ast.FuncLit:
		return "function literal (closure)", true
	case *ast.DeferStmt:
		return "defer statement", true
	case *ast.GoStmt:
		return "go statement", true
	case *ast.BinaryExpr:
		if n.Op.String() == "+" {
			if t, ok := pass.TypesInfo.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
				return "string concatenation", true
			}
		}
	}
	return "", false
}

func classifyCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				return "make", true
			case "new":
				return "new", true
			case "append":
				return "append (growth cannot be proven static)", true
			}
			return "", false
		}
	}
	// Conversions: T(x) where T is an interface, string<->[]byte/[]rune.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) != 1 {
			return "", false
		}
		src := pass.TypesInfo.TypeOf(call.Args[0])
		if src == nil {
			return "", false
		}
		if types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) {
			return "conversion to interface " + dst.String(), true
		}
		if isString(dst) != isString(src) && (isByteOrRuneSlice(dst) || isByteOrRuneSlice(src)) {
			return "string <-> slice conversion", true
		}
	}
	return "", false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}
