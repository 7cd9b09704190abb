// Buckets: per-plan dynamic batching with bounded occupancy.
//
// A bucket batches only while every worker is busy (see loop).
//
// Occupancy is one atomic counter per bucket, and the bucket does not
// hold its compiled program: each flush acquires the program from the
// plan store, so eviction stays honest even for a plan with a
// permanently busy bucket.

package serve

import (
	"sync"
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
	jobs        sync.Pool // recycled *flushJob

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
	b := &bucket{
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
	b.jobs.New = func() any {
		return &flushJob{b: b, batch: make([]*request, 0, s.cfg.MaxBatch)}
	}
	return b
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

// loop is the bucket's batching goroutine. It hands its pending batch
// to a worker the moment one is idle: the send on the unbuffered work
// channel is enabled whenever the batch is non-empty and completes only
// when a worker receives it. A lone request on an idle server therefore
// flushes at once, and requests accumulate, up to MaxBatch, only while
// every worker is busy; at MaxBatch the loop stops receiving and the
// backlog waits in the admission queue, which QueueDepth bounds. On
// drain it sweeps the sealed queue with blocking sends, repeating until
// occupancy reads zero — no admitted request, however racy its enqueue,
// is left behind — then exits.
func (b *bucket) loop() {
	defer b.srv.loops.Done()
	maxBatch := b.srv.cfg.MaxBatch
	job := b.newJob()
	for {
		queue, work := b.queue, b.srv.work
		if len(job.batch) == maxBatch {
			queue = nil
		}
		if len(job.batch) == 0 {
			work = nil
		}
		select {
		case req := <-queue:
			job.batch = b.fill(append(job.batch, req))
		case work <- job:
			job = b.newJob()
		case <-b.srv.drain:
			b.sweep(job)
			return
		}
	}
}

// fill appends whatever is already queued, without blocking, up to
// MaxBatch.
func (b *bucket) fill(batch []*request) []*request {
	for len(batch) < b.srv.cfg.MaxBatch {
		select {
		case req := <-b.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// sweep is the drain: flush everything queued, waiting for a worker
// each time, until occupancy reads zero.
func (b *bucket) sweep(job *flushJob) {
	for {
		for {
			if job.batch = b.fill(job.batch); len(job.batch) == 0 {
				break
			}
			b.srv.work <- job
			job = b.newJob()
		}
		// Zero occupancy means every admitted request has been
		// replied — none is latent between its reservation and its
		// enqueue, none is queued, none is mid-flush.
		if b.outstanding.Load() == 0 && len(b.queue) == 0 {
			b.occupancy.Set(0)
			return
		}
		time.Sleep(drainPoll)
	}
}

// newJob takes a recycled flush job, its batch empty.
func (b *bucket) newJob() *flushJob { return b.jobs.Get().(*flushJob) }

// flushJob is one batch on its way to a worker. Jobs are recycled
// through their bucket's pool, so a warm flush allocates nothing.
type flushJob struct {
	b     *bucket
	batch []*request
	items [][]Key // the batch's key slices, as the columnar replay takes them
}

// run flushes the job's batch, then clears and recycles the job.
func (j *flushJob) run() {
	j.b.runFlush(j)
	clear(j.batch)
	clear(j.items)
	j.batch, j.items = j.batch[:0], j.items[:0]
	j.b.jobs.Put(j)
}

// runFlush binds the batch and sorts it. A context canceled or expired
// while the request was enqueued is honored here, before the sort; once
// bound, a request rides the flush to completion — a mid-flush
// cancellation neither aborts the sort nor poisons batchmates. The
// compiled program is acquired from the plan store for each flush.
func (b *bucket) runFlush(j *flushJob) {
	live := j.batch[:0]
	for _, req := range j.batch {
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
	for _, req := range live {
		j.items = append(j.items, req.keys)
	}
	// Columnar replay: the flush transposes into per-position columns
	// (width = live batch size) and walks the program once for the whole
	// batch; pooled slabs keep the warm path allocation-free per item.
	err = schedule.RunBatchColumnar(prog, j.items, 1, b.cols)
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
