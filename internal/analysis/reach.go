package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file defines the hot frontier — which functions count as "inside
// the engine inner loop" — and the forward reachability pass that marks
// everything they transitively call as hot. DESIGN.md §16 documents the
// frontier; hotalloc consumes the resulting fact.

// engineRegister is the sim.Engine method whose function-valued argument
// executes inside the engine loop: the typed-kind jump table. Every
// handler registered with it becomes a hot root, no matter how cold the
// code that registered it.
const engineRegister = "RegisterKind"

// simEnginePath/simEngineType identify the engine type for root
// detection; fixtures that import the real package match too.
const (
	simEnginePath = "eant/internal/sim"
	simEngineName = "Engine"
)

// hotFrontier names the functions that ARE the engine inner loop, matched
// by (package path, receiver, name). The dispatch-table roots are
// discovered syntactically (see engineRegister); these are the named
// anchors from DESIGN.md §16's frontier definition.
var hotFrontier = []struct {
	pkg, recv, name string
	desc            string
}{
	{simEnginePath, simEngineName, "RunUntil", "the engine run loop sim.Engine.RunUntil"},
	{"eant/internal/mapreduce", "Driver", "heartbeatTick", "the driver heartbeat handler"},
	{"eant/internal/mapreduce", "Driver", "controlTickEvent", "the driver control-tick handler"},
	{"eant/internal/core", "EAnt", "AssignMap", "the E-Ant map offer path"},
	{"eant/internal/core", "EAnt", "AssignReduce", "the E-Ant reduce offer path"},
}

// markHot seeds the hot roots and runs the caller→callee fixpoint over
// call, dispatch, and ref edges. Hot-stop annotated nodes never enter the
// set and never propagate.
func (g *CallGraph) markHot() {
	var work []*Node
	root := func(n *Node, desc string) {
		if n == nil || n.facts.hot || n.facts.hotStop {
			return
		}
		n.facts.hot = true
		n.facts.hotRoot = desc
		work = append(work, n)
	}

	// Named frontier anchors.
	for _, n := range g.Nodes {
		if n.Fn == nil {
			continue
		}
		for _, f := range hotFrontier {
			if n.Pkg.Types.Path() == f.pkg && n.Fn.Name() == f.name && recvTypeName(n.Fn) == f.recv {
				root(n, f.desc)
			}
		}
	}

	// Dispatch-table roots: handlers registered with the engine.
	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(n.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != engineRegister {
				return true
			}
			if !namedFromInfo(info, sel.X, simEnginePath, simEngineName) {
				return true
			}
			for _, arg := range call.Args {
				arg = unparen(arg)
				if sig := info.TypeOf(arg); sig == nil {
					continue
				} else if _, ok := sig.Underlying().(*types.Signature); !ok {
					continue
				}
				const desc = "a handler registered with sim.Engine.RegisterKind (fires inside the run loop)"
				switch a := arg.(type) {
				case *ast.FuncLit:
					root(g.byLit[a], desc)
				case *ast.Ident:
					if fn, ok := info.Uses[a].(*types.Func); ok {
						root(g.byFunc[fn], desc)
					}
				case *ast.SelectorExpr:
					if s, ok := info.Selections[a]; ok && s.Kind() == types.MethodVal {
						root(g.byFunc[s.Obj().(*types.Func)], desc)
					} else if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
						root(g.byFunc[fn], desc)
					}
				}
			}
			return true
		})
	}

	sort.Slice(work, func(i, j int) bool { return work[i].ID < work[j].ID })
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, e := range n.Out {
			callee := e.Callee
			if callee.facts.hot || callee.facts.hotStop {
				continue
			}
			callee.facts.hot = true
			callee.facts.hotVia = n
			work = append(work, callee)
		}
	}
}

// recvTypeName returns the bare name of fn's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// namedFromInfo is namedFrom without a Pass: reports whether e's type
// (after stripping pointers) is the named type pkgPath.name.
func namedFromInfo(info *types.Info, e ast.Expr, pkgPath, name string) bool {
	return namedFrom(info.TypeOf(e), pkgPath, name)
}
