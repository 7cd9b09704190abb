// Buckets: per-plan dynamic batching with bounded occupancy.
//
// Occupancy is one atomic counter per bucket, and the bucket does not
// hold its compiled program: each flush acquires the program from the
// plan store, so eviction stays honest even for a plan with a
// permanently busy bucket.

package serve

import (
	"sync/atomic"
	"time"

	"productsort/internal/obs"
	"productsort/internal/schedule"
)

// BatchSizeBuckets is the histogram layout for flushed batch sizes.
var BatchSizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// drainPoll is how often a draining bucket loop re-reads its
// occupancy while waiting for in-flight submissions and flushes to settle.
const drainPoll = 50 * time.Microsecond

// bucket batches every request the planner maps to one plan. All
// requests in a bucket pad to the same node count, so any mix of sizes
// it covers can share a flush.
type bucket struct {
	srv  *Server
	plan *Plan

	queue       chan *request
	outstanding atomic.Int64 // admitted minus replied; bounded by QueueDepth
	cols        *schedule.ColumnBuffer

	occupancy *obs.Gauge
	latency   *obs.Histogram
	batchSize *obs.Histogram
	colWidth  *obs.Histogram
	flushes   *obs.Counter
	shed      *obs.Counter
	familyC   *obs.Counter // serve.planner.family.<family>, shared across same-family buckets
}

// newBucket wires a bucket's queue and per-bucket instruments
// (serve.bucket.<network>.*).
func newBucket(s *Server, plan *Plan) *bucket {
	prefix := "serve.bucket." + plan.Name()
	return &bucket{
		srv:  s,
		plan: plan,
		// outstanding <= QueueDepth bounds queue occupancy too, so the
		// admission send below can never block.
		queue:     make(chan *request, s.cfg.QueueDepth),
		cols:      schedule.NewColumnBuffer(),
		occupancy: s.met.Gauge(prefix + ".occupancy"),
		latency:   s.met.Histogram(prefix+".latency_ns", obs.DurationBucketsNs),
		batchSize: s.met.Histogram(prefix+".batchsize", BatchSizeBuckets),
		colWidth:  s.met.Histogram(prefix+".colwidth", BatchSizeBuckets),
		flushes:   s.met.Counter(prefix + ".flushes"),
		shed:      s.met.Counter(prefix + ".shed"),
		familyC:   s.met.Counter("serve.planner.family." + plan.Family),
	}
}

// reserve claims one occupancy slot and reports whether it got one.
// It adds first and undoes the add past QueueDepth: of racing callers
// contending for the last slot, at most one lands at or under the
// bound, so the bound is exact. A transient over-count can only shed a
// request while a slot is free, never over-admit.
func (b *bucket) reserve() bool {
	if b.outstanding.Add(1) <= int64(b.srv.cfg.QueueDepth) {
		return true
	}
	b.outstanding.Add(-1)
	return false
}

// admit reserves one occupancy slot, then checks the closed flag, then
// enqueues — in that order. The reservation-first protocol is what the
// drain relies on: a submitter that saw closed=false holds a slot that
// every post-Close occupancy read observes, so the drain sweep cannot
// finish before this request's enqueue lands. Returns ErrQueueFull
// when the bucket is at depth, ErrClosed after Close.
func (b *bucket) admit(req *request) error {
	if !b.reserve() {
		b.shed.Inc()
		return ErrQueueFull
	}
	if b.srv.closed.Load() {
		b.outstanding.Add(-1)
		return ErrClosed
	}
	select {
	case b.queue <- req:
		return nil
	default:
		// Unreachable while the occupancy invariant holds; fail closed
		// rather than block admission.
		b.outstanding.Add(-1)
		b.shed.Inc()
		return ErrQueueFull
	}
}

// loop is the bucket's batching goroutine: accumulate until MaxBatch or
// MaxLinger after the first pending request, then hand the batch to a
// flush. On drain it sweeps the sealed queue and flushes the remainder,
// repeating until occupancy reads zero — no admitted request,
// however racy its enqueue, is left behind — then exits.
func (b *bucket) loop() {
	defer b.srv.wg.Done()
	maxBatch := b.srv.cfg.MaxBatch
	pending := make([]*request, 0, maxBatch)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	timerLive := false
	stopTimer := func() {
		if timerLive {
			if !timer.Stop() {
				<-timer.C
			}
			timerLive = false
		}
	}
	flush := func() {
		stopTimer()
		if len(pending) == 0 {
			return
		}
		batch := pending
		pending = make([]*request, 0, maxBatch)
		b.startFlush(batch)
	}
	for {
		select {
		case req := <-b.queue:
			pending = append(pending, req)
			if len(pending) >= maxBatch {
				flush()
			} else if !timerLive {
				timer.Reset(b.srv.cfg.MaxLinger)
				timerLive = true
			}
		case <-timer.C:
			timerLive = false
			flush()
		case <-b.srv.drain:
			for {
				swept := false
				for !swept {
					select {
					case req := <-b.queue:
						pending = append(pending, req)
						if len(pending) >= maxBatch {
							flush()
						}
					default:
						swept = true
					}
				}
				flush()
				// Zero occupancy means every admitted request has been
				// replied — none is latent between its reservation and
				// its enqueue, none is queued, none is mid-flush.
				if b.outstanding.Load() == 0 && len(b.queue) == 0 {
					b.occupancy.Set(0)
					return
				}
				time.Sleep(drainPoll)
			}
		}
	}
}

// startFlush runs one batch on the server's bounded worker pool.
func (b *bucket) startFlush(batch []*request) {
	b.srv.wg.Add(1)
	go func() {
		defer b.srv.wg.Done()
		b.srv.sem <- struct{}{}
		defer func() { <-b.srv.sem }()
		b.runFlush(batch)
	}()
}

// runFlush binds the batch and sorts it. A context canceled or expired
// while the request was enqueued is honored here, before the sort; once
// bound, a request rides the flush to completion — a mid-flush
// cancellation neither aborts the sort nor poisons batchmates. The
// compiled program is acquired from the plan store for each flush.
func (b *bucket) runFlush(batch []*request) {
	live := batch[:0]
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			b.reply(req, Reply{Err: err, Network: b.plan.Name(), Family: b.plan.Family})
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	if gate := b.srv.flushGate; gate != nil {
		<-gate
	}
	prog, _, err := b.srv.store.Acquire(b.plan, b.srv.planner.Engine())
	if err != nil {
		for _, req := range live {
			b.reply(req, Reply{Err: err, Network: b.plan.Name(), Family: b.plan.Family, BatchSize: len(live)})
		}
		return
	}
	items := make([][]Key, len(live))
	for i, req := range live {
		items[i] = req.keys
	}
	// Columnar replay: the flush transposes into per-position columns
	// (width = live batch size) and walks the program once for the whole
	// batch; pooled slabs keep the warm path allocation-free per item.
	err = schedule.RunBatchColumnar(prog, items, 1, b.cols)
	b.flushes.Inc()
	b.familyC.Inc()
	b.batchSize.Observe(int64(len(live)))
	b.colWidth.Observe(int64(len(live)))
	for _, req := range live {
		if err != nil {
			b.reply(req, Reply{Err: err, Network: b.plan.Name(), Family: b.plan.Family, BatchSize: len(live)})
			continue
		}
		b.reply(req, Reply{
			Keys:      req.keys,
			Rounds:    prog.Rounds(),
			Network:   b.plan.Name(),
			Family:    b.plan.Family,
			BatchSize: len(live),
		})
	}
	// Sampling once per flush (not per reply) keeps the gauge write off
	// the reply path; the drain loop writes the authoritative final zero.
	b.occupancy.Set(b.outstanding.Load())
}

// reply releases the request's admission slot, stamps the wait and
// delivers the single reply (never blocking: out is buffered).
func (b *bucket) reply(req *request, rep Reply) {
	rep.Wait = time.Since(req.t0)
	b.outstanding.Add(-1)
	b.latency.Observe(int64(rep.Wait))
	req.out <- rep
}
