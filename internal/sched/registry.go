package sched

import (
	"fmt"

	"eant/internal/core"
	"eant/internal/mapreduce"
)

// Name selects a task-assignment policy; it equals the policy's
// Scheduler.Name().
type Name string

// The registered policies.
const (
	NameEAnt     Name = "E-Ant"
	NameFair     Name = "Fair"
	NameTarazu   Name = "Tarazu"
	NameLATE     Name = "LATE"
	NameCapacity Name = "Capacity"
	NameFIFO     Name = "FIFO"
)

// Policy is one row of the scheduler registry.
type Policy struct {
	Name Name
	// New builds a fresh instance. E-Ant takes the params; the baselines
	// ignore them.
	New func(core.Params) (mapreduce.Scheduler, error)
	// Reset returns an instance built by this row's New to its pre-run
	// state, adopting the params where the policy has any (E-Ant sweeps
	// vary them between runs of one warm world).
	Reset func(mapreduce.Scheduler, core.Params) error
}

// policies is the registry: adding a policy means adding one row.
var policies = []Policy{
	{
		Name:  NameEAnt,
		New:   func(p core.Params) (mapreduce.Scheduler, error) { return core.NewEAnt(p) },
		Reset: func(s mapreduce.Scheduler, p core.Params) error { return s.(*core.EAnt).ResetForRun(p) },
	},
	{Name: NameFair, New: func(core.Params) (mapreduce.Scheduler, error) { return NewFair(), nil }, Reset: resetBaseline},
	{Name: NameTarazu, New: func(core.Params) (mapreduce.Scheduler, error) { return NewTarazu(), nil }, Reset: resetBaseline},
	{Name: NameLATE, New: func(core.Params) (mapreduce.Scheduler, error) { return NewLATE(), nil }, Reset: resetBaseline},
	{Name: NameCapacity, New: func(core.Params) (mapreduce.Scheduler, error) { return NewCapacity(nil, nil) }, Reset: resetBaseline},
	{Name: NameFIFO, New: func(core.Params) (mapreduce.Scheduler, error) { return NewFIFO(), nil }, Reset: resetBaseline},
}

// resetBaseline resets a parameterless baseline policy.
func resetBaseline(s mapreduce.Scheduler, _ core.Params) error {
	s.(interface{ ResetForRun() }).ResetForRun()
	return nil
}

// Names lists every registered policy in registry order.
func Names() []Name {
	names := make([]Name, len(policies))
	for i, p := range policies {
		names[i] = p.Name
	}
	return names
}

// Lookup returns the registry row of the named policy.
func Lookup(name Name) (Policy, error) {
	for _, p := range policies {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("unknown scheduler %q", name)
}
