package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Admission-control errors, mapped to HTTP statuses by the handlers.
var (
	// errQueueFull means the bounded job queue is at capacity (429).
	errQueueFull = errors.New("service: job queue full")
	// errDraining means the server is shutting down (503).
	errDraining = errors.New("service: draining")
)

// job is one unit of work admitted to the pool. The worker either executes
// run or — when the request context is already dead from queue-wait — skips
// it; either way exactly one result lands in done (buffered, so workers
// never block on an abandoned handler).
type job struct {
	ctx  context.Context
	run  func(ctx context.Context) (any, error)
	done chan jobResult
}

// jobResult is what a worker hands back to the waiting handler.
type jobResult struct {
	v   any
	err error
}

// newJob wraps fn for admission.
func newJob(ctx context.Context, fn func(ctx context.Context) (any, error)) *job {
	return &job{ctx: ctx, run: fn, done: make(chan jobResult, 1)}
}

// workPool is chopperd's bounded execution layer: a fixed worker count
// draining a bounded queue. Admission is non-blocking — a full queue is the
// client's problem (429 + Retry-After), never a goroutine pile-up in the
// server. The mutex serializes admission against close, so a submit can
// never race a send onto a closed queue.
type workPool struct {
	workers int
	active  atomic.Int64
	mu      sync.Mutex
	queue   chan *job
	closed  bool
}

// newWorkPool sizes the pool; run must be called (once) to start it.
func newWorkPool(workers, queueDepth int) *workPool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &workPool{workers: workers, queue: make(chan *job, queueDepth)}
}

// submit admits a job or reports errQueueFull / errDraining.
func (p *workPool) submit(j *job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errDraining
	}
	select {
	case p.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// depth reports the currently queued job count.
func (p *workPool) depth() int { return len(p.queue) }

// inflight reports the jobs currently executing on a worker.
func (p *workPool) inflight() int { return int(p.active.Load()) }

// cap reports the queue capacity.
func (p *workPool) cap() int { return cap(p.queue) }

// close stops admission and lets run's workers drain what is queued.
// Idempotent; safe to call concurrently with submit.
func (p *workPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.queue)
}

// run starts the workers and blocks until close has been called and every
// queued job has finished — the pool's drain barrier. Each worker signals a
// WaitGroup the function waits on, so no worker goroutine can outlive it.
func (p *workPool) run() {
	var wg sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range p.queue {
				p.exec(j)
			}
		}()
	}
	wg.Wait()
}

// exec runs one job on the calling worker. A job whose context died while
// queued is skipped — its handler is gone, and running it would burn a
// worker on an unobservable result.
func (p *workPool) exec(j *job) {
	if err := j.ctx.Err(); err != nil {
		j.done <- jobResult{err: fmt.Errorf("service: canceled while queued: %w", err)}
		return
	}
	p.active.Add(1)
	v, err := j.run(j.ctx)
	// Stop counting before the ack: once the handler holds the result, the
	// job must no longer read as in flight (a drain decision may follow).
	p.active.Add(-1)
	j.done <- jobResult{v: v, err: err}
}
