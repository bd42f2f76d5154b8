package fleet

import (
	"bytes"
	"context"
	"testing"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/runner"
	"mnoc/internal/runner/pool"
)

// testOptions keeps fleet tests fast: the same radix-16 scale the
// server tests use.
func testOptions() *exp.Options {
	return &exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20}
}

func testRunner(t *testing.T) *runner.Runner {
	t.Helper()
	r, err := runner.New(runner.Config{Options: testOptions(), FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sweepEntries(t *testing.T, ids ...string) []exp.Entry {
	t.Helper()
	entries := make([]exp.Entry, len(ids))
	for i, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = e
	}
	return entries
}

// TestSweepMatchesSingleProcess pins the remote coordinator's core
// contract: entries sharded one unit each across live backends merge
// byte-identically to a single-process run of the same entries,
// whatever the worker count and whichever backend ran which unit.
func TestSweepMatchesSingleProcess(t *testing.T) {
	ctx := context.Background()
	entries := sweepEntries(t, "table1", "fig2", "fig3")
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}

	var single bytes.Buffer
	if err := testRunner(t).Run(ctx, &single, entries); err != nil {
		t.Fatal(err)
	}

	_, a := newRealBackend(t)
	_, b := newRealBackend(t)
	units := RemoteEntryUnits(ids, []string{a.URL, b.URL}, time.Minute)
	for _, workers := range []int{1, 4} {
		outs := make([][]byte, len(units))
		_, err := pool.Run(ctx, len(units), workers, true, nil, func(ctx context.Context, worker, i int) error {
			out, err := units[i].Run(ctx, worker)
			outs[i] = out
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := Merge(outs); !bytes.Equal(got, single.Bytes()) {
			t.Fatalf("workers=%d: sharded output differs from single-process run:\n--- sharded ---\n%s\n--- single ---\n%s",
				workers, got, single.Bytes())
		}
	}
}
