// Package pool is the one worker pool behind every batch of
// independent jobs in the repository: bench entries, the per-benchmark
// precompute, fault-sweep points and remote sweep units. It is a leaf
// (it imports only telemetry), so the experiment layer can schedule on
// it without an import cycle.
//
// Scheduling is work stealing over indices: item i is seeded to worker
// i%workers's queue; an idle worker drains its own queue from the
// front, then steals from the back of the longest other queue — the
// owner-front / thief-back split, which keeps stolen work as "cold" as
// possible. One mutex guards all queues: items run for milliseconds to
// seconds, so queue contention is noise.
package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"mnoc/internal/telemetry"
)

// Run calls fn(ctx, worker, i) for every i in [0, n) on exactly
// min(workers, n) goroutines (workers < 1 counts as 1); worker is the
// executing goroutine's index, below that count. It returns how many
// items a worker stole from another worker's queue, and the run's
// errors:
//
//   - item errors are kept per index and joined in index order;
//   - a done ctx stops further items from being handed out; its error
//     is appended exactly once, and items that merely returned that
//     cancellation are not reported again;
//   - with failFast, the first item error cancels the ctx passed to
//     items still running and stops further hand-outs.
//
// reg may be nil; with a registry, runner.queue_depth counts items not
// yet handed out and runner.active items in flight. The pool registers
// no other metric: callers count steals under their own names.
func Run(ctx context.Context, n, workers int, failFast bool, reg *telemetry.Registry,
	fn func(ctx context.Context, worker, i int) error) (steals int, err error) {
	if n == 0 {
		return 0, ctx.Err()
	}
	workers = min(max(workers, 1), n)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	q := newQueues(n, workers)
	queued := reg.Gauge("runner.queue_depth")
	active := reg.Gauge("runner.active")
	queued.Add(float64(n))
	errs := make([]error, n+1) // the extra last slot takes ctx's error
	var stolen atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				i, steal, ok := q.next(w)
				if !ok {
					return
				}
				queued.Add(-1)
				if steal {
					stolen.Add(1)
				}
				active.Add(1)
				err := fn(runCtx, w, i)
				active.Add(-1)
				if err == nil || (ctx.Err() != nil && isCancellation(err)) {
					continue
				}
				errs[i] = err
				if failFast {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	queued.Add(-float64(q.left()))
	errs[n] = ctx.Err()
	return int(stolen.Load()), errors.Join(errs...)
}

// isCancellation reports whether err is a context's own error.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// queues is the work-stealing state: one FIFO of item indices per
// worker.
type queues struct {
	mu sync.Mutex
	qs [][]int
}

func newQueues(n, workers int) *queues {
	q := &queues{qs: make([][]int, workers)}
	for i := range n {
		q.qs[i%workers] = append(q.qs[i%workers], i)
	}
	return q
}

// next returns worker's next item, steal=true if it came from another
// worker's queue, ok=false when no work remains anywhere.
func (q *queues) next(worker int) (i int, steal, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if own := q.qs[worker]; len(own) > 0 {
		q.qs[worker] = own[1:]
		return own[0], false, true
	}
	victim, best := -1, 0
	for v, vq := range q.qs {
		if len(vq) > best {
			victim, best = v, len(vq)
		}
	}
	if victim < 0 {
		return 0, false, false
	}
	vq := q.qs[victim]
	q.qs[victim] = vq[:len(vq)-1]
	return vq[len(vq)-1], true, true
}

// left counts the items never handed out (a cancelled run).
func (q *queues) left() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, vq := range q.qs {
		n += len(vq)
	}
	return n
}
