package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mnoc/internal/exp"
)

// Unit is one shard of a remote sweep: an independently runnable piece
// whose output is a deterministic byte rendering. The coordinator runs
// units on the worker pool (internal/runner/pool) and merges their
// outputs in unit order, so a sharded sweep is byte-identical to a
// single-process run no matter which worker ran what, or when.
type Unit struct {
	// ID names the unit in errors and logs.
	ID string
	// Run produces the unit's rendered bytes. worker is the index of
	// the executing pool worker (it picks the endpoint).
	Run func(ctx context.Context, worker int) ([]byte, error)
}

// Merge concatenates unit outputs in unit order. With units built by
// RemoteEntryUnits over the same entry list a single-process
// `mnoc bench` would run, the merged bytes equal that run's table
// output exactly — pinned by TestSweepMatchesSingleProcess and the CI
// fleet-smoke diff.
func Merge(outputs [][]byte) []byte {
	var buf bytes.Buffer
	for _, out := range outputs {
		buf.Write(out)
	}
	return buf.Bytes()
}

// remoteRetries bounds how many 429 responses a remote unit absorbs
// before giving up; waits honour the server's Retry-After ask.
const remoteRetries = 8

// RemoteEntryUnits shards a bench run across live backends: each unit
// POSTs its experiment id to /v1/bench on endpoints[worker%len] (so
// the worker pool doubles as the load balancer), decodes the
// table JSON, and renders it locally with the same Fprint the local
// path uses — keeping the merged output byte-identical regardless of
// which side ran the solve.
func RemoteEntryUnits(ids []string, endpoints []string, timeout time.Duration) []Unit {
	client := &http.Client{Timeout: timeout}
	units := make([]Unit, len(ids))
	for i, id := range ids {
		id := id
		units[i] = Unit{
			ID: id,
			Run: func(ctx context.Context, worker int) ([]byte, error) {
				endpoint := endpoints[worker%len(endpoints)]
				tables, err := remoteBench(ctx, client, endpoint, id)
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				for _, t := range tables {
					if err := t.Fprint(&buf); err != nil {
						return nil, fmt.Errorf("rendering table %s: %w", t.ID, err)
					}
				}
				return buf.Bytes(), nil
			},
		}
	}
	return units
}

// remoteBench runs one experiment on a backend, retrying admission
// pushback (429) with the server's Retry-After delay.
func remoteBench(ctx context.Context, client *http.Client, endpoint, id string) ([]*exp.Table, error) {
	body, err := json.Marshal(map[string]string{"id": id})
	if err != nil {
		return nil, fmt.Errorf("encoding bench request: %w", err)
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint+"/v1/bench", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("building bench request for %s: %w", endpoint, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", endpoint, err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading bench response from %s: %w", endpoint, err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var tables []*exp.Table
			if err := json.Unmarshal(blob, &tables); err != nil {
				return nil, fmt.Errorf("decoding bench response from %s: %w", endpoint, err)
			}
			return tables, nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < remoteRetries:
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("%s: %w", endpoint, ctx.Err())
			case <-t.C:
			}
		default:
			return nil, fmt.Errorf("%s: bench status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(blob))
		}
	}
}
