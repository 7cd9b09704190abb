// Backends: consumers that run a compiled program against keys.

package schedule

import (
	"fmt"
	"math"

	"productsort/internal/obs"
	"productsort/internal/simnet"
)

// Backend executes a compiled program over a key slice indexed by node
// id, sorting it in place, and returns the replay's clock. Because the
// program is oblivious, the clock equals prog.Clock() for every
// conforming backend; returning it keeps the interface honest about
// what a run cost.
type Backend interface {
	Run(prog *Program, keys []simnet.Key) (simnet.Clock, error)
}

// ExecBackend is the fast replay backend: it applies each exchange op
// with a simnet.Executor and charges the precomputed costs — no
// validation, no routing-plan lookups, no allocation beyond what the
// executor needs. It is the hot path behind CompiledNetwork.Sort.
type ExecBackend struct {
	// Exec applies phases; nil means simnet.SequentialExec.
	Exec simnet.Executor
	// Tracer receives a phase begin/end event pair per round-consuming
	// op. nil disables tracing; the disabled path stays allocation-free
	// (asserted by TestExecBackendDisabledTracerZeroAlloc).
	Tracer obs.Tracer
}

// Run implements Backend.
func (e ExecBackend) Run(prog *Program, keys []simnet.Key) (simnet.Clock, error) {
	if len(keys) != prog.net.Nodes() {
		return simnet.Clock{}, fmt.Errorf("schedule: %d keys for %d nodes", len(keys), prog.net.Nodes())
	}
	exec := e.Exec
	if exec == nil {
		exec = simnet.SequentialExec{}
	}
	ops := prog.ops
	if e.Tracer == nil {
		for i := range ops {
			switch ops[i].Kind {
			case OpCompareExchange, OpRoutedExchange:
				exec.CompareExchange(keys, ops[i].Pairs)
			}
		}
		return prog.clock, nil
	}
	inS2 := false
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpCompareExchange, OpRoutedExchange:
			ev := phaseEvent(op, i, inS2)
			e.Tracer.PhaseBegin(ev)
			exec.CompareExchange(keys, op.Pairs)
			e.Tracer.PhaseEnd(ev)
		case OpIdle:
			ev := phaseEvent(op, i, inS2)
			e.Tracer.PhaseBegin(ev)
			e.Tracer.PhaseEnd(ev)
		case OpBeginS2:
			inS2 = true
		case OpEndS2:
			inS2 = false
		}
	}
	return prog.clock, nil
}

// phaseEvent assembles the trace payload of one round-consuming op.
func phaseEvent(op *Op, index int, inS2 bool) obs.Phase {
	kind := obs.PhaseExchange
	switch op.Kind {
	case OpRoutedExchange:
		kind = obs.PhaseRouted
	case OpIdle:
		kind = obs.PhaseIdle
	}
	return obs.Phase{
		Index: index,
		Kind:  kind,
		Dim:   op.Dim,
		S2:    inS2,
		Cost:  op.Cost,
		Pairs: len(op.Pairs),
	}
}

// MachineBackend replays the program through a live simnet.Machine,
// letting the machine re-derive every round charge from scratch. It is
// the slow cross-check backend: tests assert its clock matches the
// program's precomputed one.
type MachineBackend struct {
	// Exec is the machine's executor; nil means the default.
	Exec simnet.Executor
}

// Run implements Backend.
func (mb MachineBackend) Run(prog *Program, keys []simnet.Key) (simnet.Clock, error) {
	m, err := simnet.New(prog.net, keys)
	if err != nil {
		return simnet.Clock{}, err
	}
	if mb.Exec != nil {
		m.SetExecutor(mb.Exec)
	}
	ReplayOnMachine(prog, m)
	copy(keys, m.Keys())
	return m.Clock(), nil
}

// ReplayOnMachine re-executes every op of the program on a live
// machine through the machine's own accounting API, so the machine's
// clock is rebuilt from first principles (and can be compared with the
// program's precomputed clock).
func ReplayOnMachine(prog *Program, m *simnet.Machine) {
	for i := range prog.ops {
		op := &prog.ops[i]
		switch op.Kind {
		case OpCompareExchange, OpRoutedExchange:
			m.CompareExchange(op.Pairs)
		case OpIdle:
			m.IdleRound()
		case OpBeginS2:
			m.BeginS2()
		case OpEndS2:
			m.EndS2()
		case OpS2Marker:
			m.AddS2Phase()
		case OpSweepMarker:
			m.AddSweepPhase()
		}
	}
}

// Sentinel is the padding key batch replay writes into scratch slots of
// items shorter than the network: the maximum Key value, so after the
// oblivious replay every sentinel sits at the top of the snake order and
// the item's own keys occupy the snake prefix (see THEORY.md §12 for why
// the 0-1 certification argument survives the padding).
const Sentinel simnet.Key = math.MaxInt64
