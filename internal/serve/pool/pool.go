// Package pool provides chipletd's bounded worker pool: a fixed set of
// workers pulling from a bounded admission queue. The bound turns overload
// into fast 503-style rejections instead of unbounded goroutine pileup.
//
// A worker slot left idle can be lent, one task at a time, to a running
// task's independent sub-work (an org search's greedy restarts and
// calibration simulations) through TryLend. Lending never delays
// admission: workers never wait for a lent slot, so a request that arrives
// while slots are lent starts at once. The price is a looser bound on
// concurrent CPU- and memory-hungry work than the worker count alone:
// TryLend grants only while running + lent < workers, and a lender is
// itself a running task, so at most workers−1 slots are lent; the workers
// may then all fill up beside them, for at most running + lent ≤
// 2·workers−1 tasks at once. Each lent slot comes back when its borrowed
// task (a whole restart, or one simulation) ends, and none is lent again
// while every worker is busy or a request waits.
package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"chiplet25d/internal/obs"
)

// ErrQueueFull is returned by Do when the admission queue is at capacity.
var ErrQueueFull = errors.New("pool: admission queue full")

// ErrClosed is returned by Do after Shutdown has begun.
var ErrClosed = errors.New("pool: shut down")

// Task is one unit of work. It must honor ctx.
type Task func(ctx context.Context) (any, error)

type job struct {
	ctx  context.Context
	fn   Task
	done chan result
}

type result struct {
	val any
	err error
}

// lentOne is one lent slot in Pool.state's upper 32 bits.
const lentOne = 1 << 32

// Pool is a bounded worker pool. Construct with New.
type Pool struct {
	queue   chan *job
	workers int
	// admitted counts the tasks Do has let in and no worker has finished:
	// queued, being dequeued, or running. Do admits while it is below
	// capacity (workers + queueDepth). Testing for a full channel instead
	// would count a task handed to an idle worker, but not yet dequeued by
	// the worker's goroutine, against the queue slots.
	admitted atomic.Int64
	capacity int64
	// state packs the tasks currently executing (low 32 bits) and the
	// slots currently lent (high 32 bits) into one word, so TryLend
	// checks and claims capacity in a single compare-and-swap.
	state atomic.Int64
	lends atomic.Int64 // successful TryLend calls

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // workers
}

// New starts a pool of workers with an admission queue of queueDepth
// pending tasks (minimums of 1 apply to both): it holds up to workers +
// queueDepth tasks at once, at most workers of them running.
func New(workers, queueDepth int) *Pool {
	p := newPool(workers, queueDepth)
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.worker()
	}
	return p
}

// newPool builds a pool without starting its workers.
func newPool(workers, queueDepth int) *Pool {
	workers, queueDepth = max(workers, 1), max(queueDepth, 1)
	return &Pool{
		queue:    make(chan *job, workers+queueDepth),
		workers:  workers,
		capacity: int64(workers + queueDepth),
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		// A task whose submitter already gave up is skipped, not run: its
		// result channel is buffered so the send never blocks. A task
		// leaves admission before its result is sent, so a caller that
		// submits again on receiving it finds the capacity free.
		if err := j.ctx.Err(); err != nil {
			p.admitted.Add(-1)
			j.done <- result{err: err}
			continue
		}
		p.state.Add(1)
		v, err := j.fn(j.ctx)
		p.state.Add(-1)
		p.admitted.Add(-1)
		j.done <- result{val: v, err: err}
	}
}

// Do submits fn and waits for its result. Admission is non-blocking: when
// every worker is taken and the queue is full, Do fails immediately with
// ErrQueueFull so the caller can shed load (HTTP 503). While queued or
// running, ctx cancellation unblocks the caller with ctx's error; the task
// itself receives ctx and is expected to abort cooperatively.
func (p *Pool) Do(ctx context.Context, fn Task) (any, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	// Record the admission-to-execution delay as a retroactive trace span
	// once a worker picks the task up; a no-op on untraced contexts.
	submitted := time.Now()
	depthAtSubmit := len(p.queue)
	traced := func(c context.Context) (any, error) {
		obs.AddSpan(c, "pool.queue_wait", submitted, time.Since(submitted),
			obs.Attr{Key: "queue_depth_at_submit", Value: depthAtSubmit})
		return fn(c)
	}
	if p.admitted.Load() >= p.capacity {
		p.mu.Unlock()
		// The request-scoped logger already carries the request ID.
		obs.Logger(ctx).Warn("pool: admission queue full, shedding request",
			"queue_depth", depthAtSubmit)
		return nil, ErrQueueFull
	}
	// Admissions are serialized by mu and the channel holds capacity jobs,
	// so this send never blocks.
	j := &job{ctx: ctx, fn: traced, done: make(chan result, 1)}
	p.admitted.Add(1)
	p.queue <- j
	p.mu.Unlock()
	select {
	case r := <-j.done:
		return r.val, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// QueueDepth returns the number of tasks waiting for a worker.
func (p *Pool) QueueDepth() int { return len(p.queue) }

// Running returns the number of tasks currently executing.
func (p *Pool) Running() int { return int(int32(p.state.Load())) }

// Lends returns the number of successful TryLend calls so far.
func (p *Pool) Lends() int64 { return p.lends.Load() }

// TryLend lends one idle worker slot without blocking. It succeeds only
// while running tasks plus lent slots are below the worker count and no
// task waits in the admission queue. The borrower runs one task on its own
// goroutine and then calls release, which is safe to call more than once.
func (p *Pool) TryLend() (release func(), ok bool) {
	for {
		st := p.state.Load()
		if int(int32(st))+int(st>>32) >= p.workers || len(p.queue) > 0 {
			return nil, false
		}
		if p.state.CompareAndSwap(st, st+lentOne) {
			break
		}
	}
	p.lends.Add(1)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			p.state.Add(-lentOne)
		}
	}, true
}

// Shutdown stops admission and waits for queued and running tasks to
// drain, or for ctx to expire (in which case the remaining tasks keep
// their own contexts and the error is returned).
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
