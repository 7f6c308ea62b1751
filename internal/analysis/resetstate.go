package analysis

import (
	"go/ast"
	"go/types"
)

// resetTarget names one resettable struct and the function that must
// return it to its freshly-constructed state. The root function is looked
// up by name and receiver type in the target's own package; the audit
// follows same-package calls from there (Driver.Reset → resetAggregates),
// so helpers count toward coverage.
type resetTarget struct {
	// typ is the audited struct; fields of typ must be referenced in the
	// reset closure or carry //eant:reset-keep.
	typ string
	// fn / recv locate the reset entry point: method fn on receiver recv
	// (recv may differ from typ when a container resets its parts, e.g.
	// cluster.Machine fields are reset by Cluster.Reset, and core's
	// pooled colony is re-primed by Matrix.colonyFor).
	fn, recv string
}

// resetRoster registers every warm-run reset path, keyed by import path.
// Adding a resettable struct (or a reset method) without registering it
// here is invisible to the check — register the pair when introducing the
// Reset; the suite fixture pins the analyzer itself stays live.
var resetRoster = map[string][]resetTarget{
	"eant/internal/mapreduce": {
		{typ: "Driver", fn: "Reset", recv: "Driver"},
		{typ: "aggregates", fn: "Reset", recv: "Driver"},
		{typ: "Job", fn: "resetForRun", recv: "Job"},
	},
	"eant/internal/core": {
		{typ: "EAnt", fn: "ResetForRun", recv: "EAnt"},
		{typ: "Matrix", fn: "Clear", recv: "Matrix"},
		{typ: "colony", fn: "colonyFor", recv: "Matrix"},
	},
	"eant/internal/sim": {
		{typ: "Engine", fn: "Reset", recv: "Engine"},
		{typ: "RNG", fn: "Reseed", recv: "RNG"},
	},
	"eant/internal/cluster": {
		{typ: "Cluster", fn: "Reset", recv: "Cluster"},
		{typ: "Machine", fn: "Reset", recv: "Cluster"},
	},
	"eant/internal/hdfs": {
		{typ: "Namespace", fn: "Reset", recv: "Namespace"},
	},
	"eant/internal/noise": {
		{typ: "Model", fn: "Reset", recv: "Model"},
	},
	"eant/internal/fault": {
		{typ: "Injector", fn: "Reset", recv: "Injector"},
	},
	"eant/internal/power": {
		{typ: "Meter", fn: "Reset", recv: "Meter"},
	},
	"eant/internal/sched": {
		{typ: "Fair", fn: "ResetForRun", recv: "Fair"},
		{typ: "Tarazu", fn: "ResetForRun", recv: "Tarazu"},
		{typ: "LATE", fn: "ResetForRun", recv: "LATE"},
		{typ: "FIFO", fn: "ResetForRun", recv: "FIFO"},
		{typ: "Capacity", fn: "ResetForRun", recv: "Capacity"},
	},
	// Fixture package (testdata/src/resetstate) so the suite can exercise
	// the analyzer without loading the real simulator packages.
	"eantlint/fixture/resetstate": {
		{typ: "World", fn: "Reset", recv: "World"},
		{typ: "Annotated", fn: "Reset", recv: "Annotated"},
	},
}

// ResetState enforces the warm-run reuse contract: every field of a
// resettable struct must either be touched by its Reset path (cleared,
// re-derived, or deliberately read) or carry a "//eant:reset-keep
// <reason>" annotation stating why it survives across runs. A field added
// to the Driver and forgotten by Reset would leak one run's state into
// the next — exactly the silent divergence the warm-equals-cold goldens
// exist to catch, surfaced here at compile time instead of as a golden
// diff.
var ResetState = &Analyzer{
	Name: "resetstate",
	Doc:  "require every field of a registered resettable struct to be referenced by its Reset path or annotated //eant:reset-keep, so new fields cannot silently leak state across warm runs",
	Run:  runResetState,
}

func runResetState(pass *Pass) error {
	targets := resetRoster[pass.Path()]
	if len(targets) == 0 {
		return nil
	}
	idx := pass.funcIndex()
	for _, t := range targets {
		pass.checkResetTarget(t, idx)
	}
	return nil
}

// funcIndex maps every package-level function object to its declaration,
// so the audit can follow same-package calls.
func (pass *Pass) funcIndex() map[types.Object]*ast.FuncDecl {
	idx := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.ObjectOf(fd.Name); obj != nil {
					idx[obj] = fd
				}
			}
		}
	}
	return idx
}

// checkResetTarget audits one (struct, reset function) pair.
func (pass *Pass) checkResetTarget(t resetTarget, idx map[types.Object]*ast.FuncDecl) {
	obj := pass.Pkg.Scope().Lookup(t.typ)
	if obj == nil {
		return // struct renamed away; the roster entry is dead
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(obj.Pos(), "resetstate roster names %s, which is not a struct", t.typ)
		return
	}
	root := pass.findFunc(t.fn, t.recv)
	if root == nil {
		pass.Reportf(obj.Pos(), "resettable struct %s has no reset entry point %s.%s; implement it or drop the roster entry", t.typ, t.recv, t.fn)
		return
	}
	touched := pass.reachableFieldRefs(root, idx)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if touched[f] {
			continue
		}
		reason, annotated := pass.Annotation(f.Pos(), "reset-keep")
		if !annotated {
			pass.Reportf(f.Pos(), "field %s.%s is not referenced by %s.%s or its helpers: clear or re-derive it there, or annotate //eant:reset-keep <reason> if it must survive across warm runs", t.typ, f.Name(), t.recv, t.fn)
			continue
		}
		if reason == "" {
			pass.Reportf(f.Pos(), "//eant:reset-keep annotation needs a one-line reason")
		}
	}
}

// findFunc returns the declaration of method fn on receiver type recv
// (base name, pointer or value), or nil.
func (pass *Pass) findFunc(fn, recv string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn || fd.Body == nil {
				continue
			}
			if receiverBase(fd) == recv {
				return fd
			}
		}
	}
	return nil
}

// receiverBase returns the base type name of fd's receiver, or "".
func receiverBase(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// reachableFieldRefs walks root and every same-package function it
// (transitively) calls, collecting each struct-field object referenced —
// selector reads/writes, composite-literal keys, and clear() arguments all
// resolve to the field's types.Var through the Uses map.
func (pass *Pass) reachableFieldRefs(root *ast.FuncDecl, idx map[types.Object]*ast.FuncDecl) map[types.Object]bool {
	refs := map[types.Object]bool{}
	visited := map[*ast.FuncDecl]bool{}
	work := []*ast.FuncDecl{root}
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[fd] {
			continue
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if obj := pass.ObjectOf(x); obj != nil {
					if v, ok := obj.(*types.Var); ok && v.IsField() {
						refs[obj] = true
					}
				}
			case *ast.CallExpr:
				var callee *ast.Ident
				switch fun := x.Fun.(type) {
				case *ast.Ident:
					callee = fun
				case *ast.SelectorExpr:
					callee = fun.Sel
				}
				if callee != nil {
					if next, ok := idx[pass.ObjectOf(callee)]; ok && !visited[next] {
						work = append(work, next)
					}
				}
			}
			return true
		})
	}
	return refs
}
