package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mnoc/internal/telemetry"
)

// TestRun pins the pool's contract case by case: per-index results and
// errors joined in index order, join-all versus fail-fast, a done ctx
// reported exactly once, worker indices below min(workers, n), never
// more than `workers` items in flight, and a forced steal.
func TestRun(t *testing.T) {
	boom := errors.New("boom")

	// fail-fast: item 0 fails only once item 1 is in flight, so the
	// cancellation provably reaches a running item; item 2 sits in
	// worker 0's queue and must never start.
	ffStarted := make(chan struct{})

	// forced steal: item 0 (worker 0) blocks until item 2 — seeded to
	// worker 0's own queue — has run, which only a thief can do.
	stolenRan := make(chan struct{})

	cancelledCtx, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	midCtx, cancelMid := context.WithCancel(context.Background())
	mixedCtx, cancelMixed := context.WithCancel(context.Background())
	defer cancelMid()
	defer cancelMixed()

	for _, tc := range []struct {
		name       string
		ctx        context.Context // nil means Background
		n, workers int
		failFast   bool
		item       func(ctx context.Context, i int) error
		want       string // joined error text; "" means success
		skipped    []int  // items that must never run
		minSteals  int
	}{
		{
			name: "results in index order", n: 10, workers: 3,
			item: func(context.Context, int) error { return nil },
		},
		{
			name: "join-all reports every error in index order", n: 5, workers: 2,
			item: func(_ context.Context, i int) error {
				if i == 1 || i == 3 {
					return boom
				}
				return nil
			},
			want: "item 1: boom\nitem 3: boom",
		},
		{
			name: "fail-fast cancels running items", n: 3, workers: 2, failFast: true,
			item: func(ctx context.Context, i int) error {
				switch i {
				case 0:
					if err := await(ctx, ffStarted); err != nil {
						return err
					}
					return boom
				case 1:
					close(ffStarted)
					// Only the fail-fast cancel releases this.
					return await(ctx, nil)
				}
				return nil
			},
			want:    "item 0: boom\nitem 1: context canceled",
			skipped: []int{2},
		},
		{
			name: "done ctx runs nothing and reports once", ctx: cancelledCtx, n: 3, workers: 2,
			item:    func(context.Context, int) error { return nil },
			want:    "context canceled",
			skipped: []int{0, 1, 2},
		},
		{
			name: "ctx cancelled mid-run is reported once", ctx: midCtx, n: 6, workers: 2,
			item: func(ctx context.Context, i int) error {
				if i == 0 {
					cancelMid()
				}
				<-ctx.Done()
				return ctx.Err()
			},
			want:    "context canceled",
			skipped: []int{2, 3, 4, 5},
		},
		{
			name: "item error and ctx error both kept", ctx: mixedCtx, n: 4, workers: 1,
			item: func(_ context.Context, i int) error {
				switch i {
				case 0:
					return boom
				case 1:
					cancelMixed()
				}
				return nil
			},
			want:    "item 0: boom\ncontext canceled",
			skipped: []int{2, 3},
		},
		{
			name: "forced steal", n: 3, workers: 2,
			item: func(ctx context.Context, i int) error {
				switch i {
				case 0:
					return await(ctx, stolenRan)
				case 2:
					close(stolenRan)
				}
				return nil
			},
			minSteals: 1,
		},
		{
			name: "at most workers in flight", n: 40, workers: 3,
			item: func(context.Context, int) error { time.Sleep(100 * time.Microsecond); return nil },
		},
		{
			name: "worker index below item count", n: 2, workers: 8,
			item: func(context.Context, int) error { time.Sleep(100 * time.Microsecond); return nil },
		},
		{
			name: "no items", n: 0, workers: 4,
			item: func(context.Context, int) error { return errors.New("ran") },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			limit := min(tc.workers, tc.n)
			reg := telemetry.NewRegistry()
			results := make([]int, tc.n)
			ran := make([]atomic.Bool, tc.n)
			var active, maxActive atomic.Int64
			var badWorker atomic.Int64
			badWorker.Store(-1)
			steals, err := Run(ctx, tc.n, tc.workers, tc.failFast, reg, func(ctx context.Context, worker, i int) error {
				if worker < 0 || worker >= limit {
					badWorker.Store(int64(worker))
				}
				ran[i].Store(true)
				now := active.Add(1)
				defer active.Add(-1)
				for {
					peak := maxActive.Load()
					if now <= peak || maxActive.CompareAndSwap(peak, now) {
						break
					}
				}
				if err := tc.item(ctx, i); err != nil {
					return fmt.Errorf("item %d: %w", i, err)
				}
				results[i] = i + 1
				return nil
			})

			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("error %q, want %q", got, tc.want)
			}
			if w := badWorker.Load(); w >= 0 {
				t.Errorf("worker index %d outside [0, %d)", w, limit)
			}
			if peak := maxActive.Load(); peak > int64(limit) {
				t.Errorf("%d items in flight, want <= %d", peak, limit)
			}
			if steals < tc.minSteals {
				t.Errorf("steals=%d, want >= %d", steals, tc.minSteals)
			}
			for _, i := range tc.skipped {
				if ran[i].Load() {
					t.Errorf("item %d ran, want never handed out", i)
				}
			}
			if tc.want == "" {
				for i, r := range results {
					if r != i+1 {
						t.Fatalf("results[%d]=%d, want %d (index order)", i, r, i+1)
					}
				}
			}
			snap := reg.Snapshot()
			for _, g := range []string{"runner.queue_depth", "runner.active"} {
				if v := snap.Gauges[g]; v != 0 {
					t.Errorf("%s=%g after the run, want 0", g, v)
				}
			}
		})
	}
}

// await blocks until ch closes (nil), ctx is done (its error) or a
// generous deadline passes, so a broken pool fails the test instead of
// hanging it.
func await(ctx context.Context, ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(10 * time.Second):
		return errors.New("timed out")
	}
}
