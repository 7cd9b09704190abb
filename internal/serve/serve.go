// The server: admission control, bucket dispatch, graceful drain.
//
// Flushes run on Workers long-lived goroutines that take jobs from one
// unbuffered channel. Each bucket loop offers its pending batch there
// whenever the batch is non-empty, so a request waits only while every
// worker is busy, and batches widen exactly as far as the load forces.
//
// The submit path is lock-free end to end: the planner lookup is a
// binary search over immutable plans, the bucket table is a dense
// immutable slice indexed by plan (buckets and their loops are built
// eagerly at New), admission is one atomic counter per bucket, and the
// compiled program is acquired per flush from the snapshot plan store
// (store.go). No Submit ever takes a mutex the Server owns.
//
// The drain handshake is an ordering argument: Submit reserves its
// admission slot *before* loading the closed flag, and each bucket's
// drain sweep exits only once its occupancy reads zero. A submitter
// that observed closed=false has its reservation visible to every
// later read (sequentially consistent atomics), so the sweep cannot
// conclude while an admitted request has yet to enqueue — every
// admitted request is drained. The work channel closes only after
// every bucket loop has exited, and the workers exit with it.

package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"productsort/internal/obs"
	"productsort/internal/simnet"
)

// Key aliases the machine's key type.
type Key = simnet.Key

// Typed admission errors. Callers branch with errors.Is.
var (
	// ErrQueueFull is the overload-shedding signal: the request's
	// bucket is at QueueDepth admitted-but-unreplied requests.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed rejects submissions after Close sealed admission.
	ErrClosed = errors.New("serve: server closed")
	// ErrTooLarge rejects requests no candidate network covers.
	ErrTooLarge = errors.New("serve: request too large")
	// ErrEmpty rejects zero-key requests.
	ErrEmpty = errors.New("serve: empty request")
)

// Reply is the terminal answer to one Submit, delivered exactly once on
// the channel Submit returned.
type Reply struct {
	// Keys holds the request's keys sorted ascending; nil when Err is
	// non-nil.
	Keys []Key
	// Err is nil on success, the request context's error when the
	// request was dropped before being bound into a flush, or the
	// plan's compile error when its program could not be built.
	Err error
	// Rounds is the parallel round charge of the compiled program that
	// carried the request (every batchmate shares it).
	Rounds int
	// Network names the covering network the planner chose.
	Network string
	// Family names the construction family of the chosen network
	// ("product", "multiway", "periodic") — the reply-side view of the
	// planner's cross-family pick.
	Family string
	// BatchSize is the number of requests that shared the flush.
	BatchSize int
	// Wait is submit-to-reply wall time: queueing while every worker
	// is busy, and the sort itself.
	Wait time.Duration
}

// Config parametrizes a Server. The zero value of every field but
// Planner selects a sensible default.
type Config struct {
	// Planner maps request sizes to covering plans. Required.
	Planner *Planner
	// MaxBatch caps the requests one flush carries (default 64). A
	// bucket's pending batch goes to the first idle worker, so it only
	// grows while every worker is busy; at MaxBatch the backlog waits
	// in the admission queue.
	MaxBatch int
	// QueueDepth bounds each bucket's admitted-but-unreplied requests;
	// submissions beyond it shed with ErrQueueFull (default 1024).
	QueueDepth int
	// Workers is the number of flush goroutines shared by all buckets,
	// and so bounds concurrently running flushes (default GOMAXPROCS).
	Workers int
	// PlanCacheSize bounds resident compiled programs in the plan
	// store; an evicted program is recompiled on its next use
	// (default 16).
	PlanCacheSize int
	// Metrics receives serve.* instruments; nil creates a private
	// registry (reachable via Server.Metrics).
	Metrics *obs.Metrics
}

// request is one admitted submission.
type request struct {
	keys []Key // private copy, sorted in place, handed back in the reply
	ctx  context.Context
	out  chan Reply // buffered 1: the single reply send never blocks
	t0   time.Time
}

// Server is the multi-tenant batching sort service. Safe for concurrent
// use by any number of submitters.
type Server struct {
	cfg     Config
	planner *Planner
	store   *PlanStore
	met     *obs.Metrics

	submitted *obs.Counter
	shed      *obs.Counter

	work    chan *flushJob // unbuffered: a send completes only when a worker is idle
	drain   chan struct{}  // closed once, after admission is sealed
	done    chan struct{}  // closed once every bucket loop and worker has exited
	loops   sync.WaitGroup
	workers sync.WaitGroup

	closed  atomic.Bool
	buckets []*bucket // dense, indexed by Plan.idx; immutable after New

	// flushGate, when non-nil, makes every flush block here between
	// binding its batch and sorting it — a test hook for pinning the
	// enqueued/mid-flush boundary and for holding queue occupancy.
	flushGate chan struct{}
}

// New builds a Server from cfg. The planner is required; everything
// else defaults. Every plan's bucket and batching loop, and every
// flush worker, starts here, so the submit path never creates state —
// it only indexes.
func New(cfg Config) (*Server, error) {
	if cfg.Planner == nil {
		return nil, errors.New("serve: config needs a planner")
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 64
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1024
	}
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.PlanCacheSize < 1 {
		cfg.PlanCacheSize = 16
	}
	met := cfg.Metrics
	if met == nil {
		met = obs.NewMetrics()
	}
	s := &Server{
		cfg:       cfg,
		planner:   cfg.Planner,
		store:     NewPlanStore(cfg.PlanCacheSize, met),
		met:       met,
		submitted: met.Counter("serve.submitted"),
		shed:      met.Counter("serve.shed"),
		work:      make(chan *flushJob),
		drain:     make(chan struct{}),
		done:      make(chan struct{}),
	}
	plans := cfg.Planner.Plans()
	s.buckets = make([]*bucket, len(plans))
	for i, plan := range plans {
		s.buckets[i] = newBucket(s, plan)
	}
	s.loops.Add(len(s.buckets))
	for _, b := range s.buckets {
		go b.loop()
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// worker runs flushes until Close has drained every bucket.
func (s *Server) worker() {
	defer s.workers.Done()
	for job := range s.work {
		job.run()
	}
}

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *obs.Metrics { return s.met }

// MaxKeys returns the largest request size the planner covers.
func (s *Server) MaxKeys() int { return s.planner.MaxKeys() }

// StoreStats snapshots the plan store's counters: lookup outcomes,
// evictions and the resident count.
func (s *Server) StoreStats() StoreStats { return s.store.Stats() }

// Submit admits keys for sorting and returns the channel the single
// Reply will arrive on. The keys slice is copied — the caller's slice
// is neither retained nor mutated. Admission fails fast with a typed
// error: ErrEmpty, ErrTooLarge, ErrClosed, ErrQueueFull (overload), or
// the context's error if ctx is already done. After admission the
// context is honored until the request is bound into a flush; from then
// on the sort completes and the reply is delivered regardless, so a
// cancellation can never poison batchmates.
func (s *Server) Submit(ctx context.Context, keys []Key) (<-chan Reply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(keys) == 0 {
		return nil, ErrEmpty
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := s.planner.For(len(keys))
	if err != nil {
		return nil, err
	}
	b := s.buckets[plan.idx]
	req := &request{
		keys: append(make([]Key, 0, len(keys)), keys...),
		ctx:  ctx,
		out:  make(chan Reply, 1),
		t0:   time.Now(),
	}
	// Reservation before closed-check is the drain handshake: an
	// admitted request's slot is visible to every occupancy read that
	// runs after Close stores the flag, so the bucket's drain sweep
	// (which exits only at zero occupancy) always outlasts the enqueue.
	if err := b.admit(req); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.shed.Inc()
			return nil, fmt.Errorf("%w: bucket %s at depth %d", ErrQueueFull, b.plan.Name(), s.cfg.QueueDepth)
		}
		return nil, err
	}
	s.submitted.Inc()
	return req.out, nil
}

// SortKeys is the synchronous helper: Submit, then wait for the reply
// or the context. It returns the sorted keys in a fresh slice.
func (s *Server) SortKeys(ctx context.Context, keys []Key) ([]Key, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out, err := s.Submit(ctx, keys)
	if err != nil {
		return nil, err
	}
	select {
	case rep := <-out:
		return rep.Keys, rep.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close seals admission and drains gracefully: every admitted request
// receives its reply, then all bucket loops and workers exit. ctx (nil means
// Background) bounds the wait; on expiry the drain continues in the
// background and Close returns ctx.Err(). Close is idempotent and
// safe to call concurrently.
func (s *Server) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.closed.CompareAndSwap(false, true) {
		close(s.drain)
		go func() {
			s.loops.Wait()
			close(s.work)
			s.workers.Wait()
			close(s.done)
		}()
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
