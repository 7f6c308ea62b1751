package analysis

import (
	"go/ast"
	"go/types"
)

// machineMutators are the cluster.Machine methods that change slot
// occupancy, utilization or availability — the transitions the driver
// must pair with its own bookkeeping in the same event.
var machineMutators = map[string]bool{
	"AcquireMap":    true,
	"AcquireReduce": true,
	"ReleaseMap":    true,
	"ReleaseReduce": true,
	"Fail":          true,
	"Repair":        true,
	"Sleep":         true,
	"Wake":          true,
}

// aggregateEntryPoints are the driver functions allowed to invoke machine
// mutators: each syncs the power meter before the utilization or power
// state changes (so energy is integrated at the draw the machine really
// had) and forwards every free-slot change to the scheduler's
// SlotObserver through noteSlotChange.
var aggregateEntryPoints = map[string]bool{
	"startMap":           true,
	"startReduce":        true,
	"beginReduceCompute": true,
	"completeTask":       true,
	"detachRunning":      true,
	"maybeSleep":         true,
	"wakeIfNeeded":       true,
	"crashMachine":       true,
	"recoverMachine":     true,
}

const (
	clusterPkg   = "eant/internal/cluster"
	mapreducePkg = "eant/internal/mapreduce"
)

// StatsMut enforces the driver's state-change contract: cluster.Machine
// slot/availability state may only be mutated through the driver entry
// points that do the matching bookkeeping in the same event, and a shared
// mapreduce.Config must not be written after the driver captured it. A
// bare m.AcquireMap in a scheduler would skip the meter sync, so the
// utilization change would be back-dated to the machine's last sync and
// the energy integral silently wrong, and a SlotObserver would miss the
// slot change.
var StatsMut = &Analyzer{
	Name: "statsmut",
	Doc:  "restrict cluster.Machine slot/availability mutation to the driver entry points that sync the meter and forward slot changes, and forbid writes through shared mapreduce.Config",
	Run:  runStatsMut,
}

func runStatsMut(pass *Pass) error {
	if pass.Path() == clusterPkg {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			pass.checkMachineMutation(fn)
			pass.checkConfigMutation(fn)
		}
	}
	return nil
}

// checkMachineMutation flags machineMutators calls outside the aggregate
// entry points.
func (pass *Pass) checkMachineMutation(fn *ast.FuncDecl) {
	if pass.Path() == mapreducePkg && aggregateEntryPoints[fn.Name.Name] {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !machineMutators[sel.Sel.Name] {
			return true
		}
		if !namedFrom(pass.TypeOf(sel.X), clusterPkg, "Machine") {
			return true
		}
		pass.Reportf(call.Pos(), "cluster.Machine.%s outside a driver aggregate entry point: the power meter would not be synced before the change and a SlotObserver would miss it; route the transition through the driver entry points", sel.Sel.Name)
		return true
	})
}

// checkConfigMutation flags field writes into a mapreduce.Config reached
// through shared state — a pointer, or a field of some longer-lived struct
// (d.cfg.X = ...). Building up a local Config value before NewDriver is
// fine; Config's own methods (setDefaults) are fine.
func (pass *Pass) checkConfigMutation(fn *ast.FuncDecl) {
	if pass.receiverIsConfig(fn) {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			base := sel.X
			if !namedFrom(pass.TypeOf(base), mapreducePkg, "Config") {
				continue
			}
			_, isIdent := base.(*ast.Ident)
			_, isPtr := pass.TypeOf(base).(*types.Pointer)
			if isIdent && !isPtr {
				// A local Config value: mutations stay private to this
				// copy until it is handed to NewDriver.
				continue
			}
			pass.Reportf(as.Pos(), "write to shared mapreduce.Config field %s: the driver captured its Config at Reset and derived its run state from it; mutate a local copy before NewDriver instead", sel.Sel.Name)
		}
		return true
	})
}

// receiverIsConfig reports whether fn is a method on (*)Config from the
// mapreduce package.
func (pass *Pass) receiverIsConfig(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	return namedFrom(pass.TypeOf(fn.Recv.List[0].Type), mapreducePkg, "Config")
}
