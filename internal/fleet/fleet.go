// Package fleet turns a set of mnoc serve replicas into one
// evaluation fleet. It has three cooperating pieces (docs/FLEET.md):
//
//   - Proxy (`mnoc proxy`): an HTTP front that consistent-hashes each
//     request's flight key — the SAME canonical key the backend's
//     flight group coalesces on (internal/server/keys.go) — across the
//     healthy backends, so identical requests land on, and coalesce
//     at, the same replica. Health checks evict dead backends and
//     re-admit recovered ones; connection errors fail over to the next
//     ring node; admission 429s pass through untouched.
//
//   - Remote (artifact store over HTTP): an artifact.Store speaking
//     GET/HEAD/PUT /artifacts/<key> against a backend running with
//     -artifact-serve, so replicas share one warm content-addressed
//     cache. Fetched blobs are envelope-validated; a corrupt response
//     counts as a miss, mirroring the local disk store's quarantine
//     behaviour.
//
//   - Sweep (`mnoc sweep -addr`): remote units that shard a bench run
//     one experiment each across live backends; the coordinator runs
//     them on the worker pool (internal/runner/pool) and merges the
//     partial tables deterministically — byte-identical to a
//     single-process run.
package fleet

import (
	"mnoc/internal/server"
	"mnoc/internal/telemetry"
)

// Fleet metric names. Constants so the metricnames analyzer can see
// every name at its registration site; the full set is pinned by
// testdata/golden/metrics_names_fleet.txt.
const (
	// MetricProxyRequests counts requests the proxy accepted.
	MetricProxyRequests = "fleet.proxy.requests"
	// MetricProxyFailovers counts attempts re-routed to the next ring
	// node after a backend connection error.
	MetricProxyFailovers = "fleet.proxy.failovers"
	// MetricProxyEvictions counts healthy→down transitions.
	MetricProxyEvictions = "fleet.proxy.evictions"
	// MetricProxyReadmissions counts down→healthy transitions.
	MetricProxyReadmissions = "fleet.proxy.readmissions"
	// MetricProxyRequestMS is the end-to-end proxy latency histogram.
	MetricProxyRequestMS = "fleet.proxy.request_ms"

	// MetricStoreHit / Miss / Put / Corrupt count remote artifact-store
	// operations as seen by the client side.
	MetricStoreHit     = "fleet.store.hit"
	MetricStoreMiss    = "fleet.store.miss"
	MetricStorePut     = "fleet.store.put"
	MetricStoreCorrupt = "fleet.store.corrupt"

	// MetricSweepUnits counts remote sweep units completed.
	MetricSweepUnits = "fleet.sweep.units"
	// MetricSweepSteals counts units a worker stole from another
	// worker's queue.
	MetricSweepSteals = "fleet.sweep.steals"
)

// RegisterMetrics pre-creates the whole fleet.* family on reg, so a
// fleet process reports the full name set (zero-valued where a path
// never ran) and the golden-names diff stays stable. Mirrors the
// runner's registerRunMetrics.
func RegisterMetrics(reg *telemetry.Registry) {
	for _, name := range []string{
		MetricProxyRequests, MetricProxyFailovers,
		MetricProxyEvictions, MetricProxyReadmissions,
		MetricStoreHit, MetricStoreMiss, MetricStorePut, MetricStoreCorrupt,
		MetricSweepUnits, MetricSweepSteals,
	} {
		//mnoclint:allow metricnames warm-up loop over the fixed literal list above; the name set is pinned by testdata/golden/metrics_names_fleet.txt
		reg.Counter(name)
	}
	// Reuse the server's request-latency layout so proxy-side and
	// backend-side histograms are directly comparable.
	reg.Histogram(MetricProxyRequestMS, server.RequestMSBuckets...)
}
