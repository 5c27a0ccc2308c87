package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"privacyscope/internal/obs"
)

// Scheduler errors, mapped to HTTP statuses by the handlers (429 and 503).
var (
	// errQueueFull: the bounded queue is at capacity — backpressure, try
	// again later.
	errQueueFull = errors.New("server: job queue full")
	// errDraining: the daemon is shutting down and accepts no new work.
	errDraining = errors.New("server: draining, not accepting work")
)

// scheduler is the bounded job scheduler: a fixed worker pool consuming a
// bounded queue. It is the daemon's only concurrency control: the pool
// bounds how many analyses run at once, the queue bounds how many wait,
// and a full queue rejects immediately instead of accumulating unbounded
// work (the 429 backpressure contract).
type scheduler struct {
	queue chan *task
	wg    sync.WaitGroup

	// baseCtx parents every job's analysis context; Shutdown cancels it,
	// so in-flight analyses degrade fail-soft (partial coverage,
	// Inconclusive verdict) and queued ones complete instantly with a
	// cancelled-coverage result — the queue drains, nothing is dropped.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.RWMutex // guards draining and the queue close
	draining bool

	inFlight atomic.Int64
	obs      obs.Observer
}

// task is one scheduled analysis; run receives the scheduler's base
// context and done closes when it returns.
type task struct {
	run  func(ctx context.Context)
	done chan struct{}
}

// newScheduler starts workers goroutines over a queue of the given depth.
func newScheduler(workers, depth int, o obs.Observer) *scheduler {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		queue:   make(chan *task, depth),
		baseCtx: ctx,
		cancel:  cancel,
		obs:     obs.Or(o),
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.inFlight.Add(1)
		s.obs.Add("server.jobs.started", 1)
		t.run(s.baseCtx)
		s.inFlight.Add(-1)
		s.obs.Add("server.jobs.completed", 1)
		close(t.done)
	}
}

// Submit enqueues run and returns a handle whose done channel closes when
// it finishes. It never blocks: a full queue returns errQueueFull and a
// draining scheduler errDraining.
func (s *scheduler) Submit(run func(ctx context.Context)) (*task, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return nil, errDraining
	}
	t := &task{run: run, done: make(chan struct{})}
	select {
	case s.queue <- t:
		return t, nil
	default:
		s.obs.Add("server.queue.rejected", 1)
		return nil, errQueueFull
	}
}

// Probe reports whether a Submit issued now would likely be accepted:
// errDraining once shutdown began, errQueueFull when the bounded queue is
// at capacity. It reserves nothing — the async path uses it to fail fast at
// POST time; the authoritative check is still the Submit inside the job.
func (s *scheduler) Probe() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return errDraining
	}
	if cap(s.queue) > 0 && len(s.queue) >= cap(s.queue) {
		return errQueueFull
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *scheduler) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// QueueDepth returns the number of queued (not yet running) jobs.
func (s *scheduler) QueueDepth() int { return len(s.queue) }

// InFlight returns the number of jobs currently running.
func (s *scheduler) InFlight() int64 { return s.inFlight.Load() }

// Shutdown drains gracefully: stop accepting, cancel the base context so
// running (and still-queued) analyses degrade fail-soft to partial
// results, and wait for the workers to finish delivering them — bounded by
// ctx, whose expiry abandons the wait and returns its error.
func (s *scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
