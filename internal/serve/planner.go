// Package serve turns compiled networks into a request-driven sorting
// service. A planner maps each requested key count to the cheapest
// covering network (candidates ranked by Theorem 1's predicted round
// count), a plan store holds the compiled programs (an immutable
// snapshot map read lock-free; the GC frees evicted programs), and
// size-bucketed dynamic batching accumulates admitted requests per plan
// until MaxBatch or MaxLinger, then flushes them through the columnar
// batch replay (schedule.RunBatchColumnar: one program walk per flush,
// every set advancing through each comparator together) on a bounded
// worker pool. This is Schiller's
// agglomeration argument — merge many independent sorting-network
// invocations into one larger network execution — applied to the
// arrival-driven, multi-tenant setting: requests of heterogeneous sizes
// arrive continuously, are padded with sentinel keys to the plan's node
// count, and are sliced back on reply.
//
// Admission control keeps the service stable under overload: each
// bucket bounds its admitted-but-unreplied requests (QueueDepth) and
// sheds beyond it with the typed ErrQueueFull, request contexts are
// honored until the request is bound into a flush, and Close seals
// admission then drains every admitted request before returning.
package serve

import (
	"errors"
	"fmt"
	"sort"

	"productsort/internal/core"
	"productsort/internal/emit"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// Plan is one candidate network with its planner ranking key.
type Plan struct {
	// Net is the candidate's host network: the product network itself
	// for FamilyProduct plans, the 1-D line host for emitted families.
	Net *product.Network
	// Rounds is the predicted parallel round count — Theorem 1's bound
	// for product plans, the emitted column depth for emitted families.
	// It is the cost a request pays regardless of how many batchmates
	// share the flush, hence the ranking key.
	Rounds int
	// Family names the construction family that produced the plan
	// ("product", "multiway", "periodic") — the serve-plan metadata
	// mixed-family servers expose per reply and per flush counter.
	Family string

	name string // display name; Net.Name() for product plans
	sig  string // schedule cache signature; the bucket and plan-store key
	idx  int    // position in the planner's sorted plans; the server's dense bucket index

	// emit builds the plan's program for emitted families; nil selects
	// schedule.CompileUncached on Net (the product path).
	emit func() (*schedule.Program, error)
}

// Nodes returns the plan's processor count: requests are padded to it.
func (p *Plan) Nodes() int { return p.Net.Nodes() }

// Name names the plan's network, e.g. "hypercube^4" or "multiway4[16]".
func (p *Plan) Name() string { return p.name }

// compileProgram builds the plan's phase program: the emitter for
// emitted families, the paper's generalized construction otherwise.
// The plan store's compile seam routes through it.
func (p *Plan) compileProgram(engine sort2d.Engine) (*schedule.Program, error) {
	if p.emit != nil {
		return p.emit()
	}
	return schedule.CompileUncached(p.Net, engine)
}

// Candidate is one network family member offered to the planner.
// Product candidates carry just Net; emitted candidates carry the
// family metadata plus an Emit constructor, because their cost and
// signature are properties of the emitter, not of an engine.
type Candidate struct {
	// Net is the product network of a FamilyProduct candidate; nil for
	// emitted families.
	Net *product.Network
	// Family names the construction family; defaults to FamilyProduct
	// when Net is set.
	Family string
	// Name is the display name (bucket metrics, Reply.Network). Ignored
	// for product candidates, which use Net.Name().
	Name string
	// Nodes is the emitted network's line count (product candidates
	// derive it from Net).
	Nodes int
	// Rounds is the emitted network's column depth (product candidates
	// are priced by core.PredictedRounds at planner build).
	Rounds int
	// Sig is the emitted program's canonical signature — the plan-store
	// key (product candidates derive it from Net and the engine).
	Sig string
	// Emit builds the emitted program; nil for product candidates.
	Emit func() (*schedule.Program, error)
}

// Planner maps a requested key count to the cheapest covering plan.
type Planner struct {
	engine sort2d.Engine
	plans  []*Plan // ascending by (Nodes, Rounds, Name)
	best   []*Plan // best[i] = cheapest plan among plans[i:]
}

// NewPlanner ranks product-network candidates for the given S_2 engine
// (nil selects sort2d.Auto). It is NewPlannerCandidates restricted to
// the paper's own family, kept for the common single-family case.
func NewPlanner(nets []*product.Network, engine sort2d.Engine) (*Planner, error) {
	cands := make([]Candidate, len(nets))
	for i, net := range nets {
		cands[i] = Candidate{Net: net}
	}
	return NewPlannerCandidates(cands, engine)
}

// NewPlannerCandidates ranks candidates drawn from any mix of network
// families for the given S_2 engine (nil selects sort2d.Auto; emitted
// candidates ignore it). Candidates may overlap in size; the planner
// picks, for every request size, the covering candidate with the
// fewest predicted rounds, breaking ties toward fewer nodes then name —
// so one server mixes families per size bucket wherever an emitted
// frontier beats the product construction.
func NewPlannerCandidates(cands []Candidate, engine sort2d.Engine) (*Planner, error) {
	if len(cands) == 0 {
		return nil, errors.New("serve: planner needs at least one candidate network")
	}
	if engine == nil {
		engine = sort2d.Auto{}
	}
	plans := make([]*Plan, len(cands))
	for i, c := range cands {
		switch {
		case c.Emit != nil:
			if c.Family == "" || c.Family == emit.FamilyProduct {
				return nil, fmt.Errorf("serve: emitted candidate %d needs a non-product family", i)
			}
			if c.Name == "" || c.Sig == "" || c.Nodes < 1 || c.Rounds < 1 {
				return nil, fmt.Errorf("serve: emitted candidate %d (%s) incomplete", i, c.Family)
			}
			plans[i] = &Plan{
				Net:    emit.Host(c.Nodes),
				Rounds: c.Rounds,
				Family: c.Family,
				name:   c.Name,
				sig:    c.Sig,
				emit:   c.Emit,
			}
		case c.Net != nil:
			if c.Family != "" && c.Family != emit.FamilyProduct {
				return nil, fmt.Errorf("serve: candidate %d: family %q without an emitter", i, c.Family)
			}
			plans[i] = &Plan{
				Net:    c.Net,
				Rounds: core.PredictedRounds(c.Net, engine),
				Family: emit.FamilyProduct,
				name:   c.Net.Name(),
				sig:    schedule.Signature(c.Net, engine.Name()),
			}
		default:
			return nil, fmt.Errorf("serve: candidate %d is nil", i)
		}
	}
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].Nodes() != plans[j].Nodes() {
			return plans[i].Nodes() < plans[j].Nodes()
		}
		if plans[i].Rounds != plans[j].Rounds {
			return plans[i].Rounds < plans[j].Rounds
		}
		return plans[i].Name() < plans[j].Name()
	})
	for i := range plans {
		plans[i].idx = i
	}
	best := make([]*Plan, len(plans))
	for i := len(plans) - 1; i >= 0; i-- {
		best[i] = plans[i]
		// Strict <: on equal rounds prefer the earlier plan, which has
		// fewer nodes (less padding, less scratch).
		if i+1 < len(plans) && best[i+1].Rounds < plans[i].Rounds {
			best[i] = best[i+1]
		}
	}
	return &Planner{engine: engine, plans: plans, best: best}, nil
}

// Engine returns the S_2 engine every plan was ranked (and will be
// compiled) with.
func (pl *Planner) Engine() sort2d.Engine { return pl.engine }

// MaxKeys returns the largest admissible request size.
func (pl *Planner) MaxKeys() int { return pl.plans[len(pl.plans)-1].Nodes() }

// Plans returns the ranked candidates, ascending by size.
func (pl *Planner) Plans() []*Plan { return pl.plans }

// For returns the cheapest plan covering n keys.
func (pl *Planner) For(n int) (*Plan, error) {
	if n < 1 {
		return nil, ErrEmpty
	}
	i := sort.Search(len(pl.plans), func(i int) bool { return pl.plans[i].Nodes() >= n })
	if i == len(pl.plans) {
		return nil, fmt.Errorf("%w: %d keys exceed the largest candidate network (%d nodes)",
			ErrTooLarge, n, pl.MaxKeys())
	}
	return pl.best[i], nil
}
