// Package server is the HTTP/JSON face of the evaluation engine: an
// online "what does this power topology cost?" service over the same
// runner, artifact cache and telemetry registry the CLI uses. The
// production plumbing lives here too — bounded admission (429 on
// overload), per-request deadlines threaded as context.Context all the
// way into the solvers, request coalescing so identical concurrent
// solves share one computation, and graceful drain on shutdown.
//
// Endpoints (docs/SERVER.md has schemas and examples):
//
//	POST /v1/solve          solve a power-topology design and price a workload on it
//	POST /v1/evaluate       power + latency for a workload under a policy at a traffic scale
//	POST /v1/bench          run registry experiments, tables as JSON
//	GET  /v1/adapt          online-adaptation controller status (serve -adapt)
//	POST /v1/adapt/evaluate price a workload on the adaptive controller's active design
//	GET  /healthz           liveness (503 `draining` once graceful drain begins)
//	GET  /version           build + run configuration
//	GET  /metrics           telemetry snapshot (JSON Report; ?format=prom for Prometheus text)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mnoc/internal/adapt"
	"mnoc/internal/core"
	"mnoc/internal/exp"
	"mnoc/internal/power"
	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// Config sizes the service. The zero value of everything but Runner is
// usable: defaults fill in New.
type Config struct {
	// Runner configures the underlying engine (scale, seed, cache dir,
	// workers). Runner.FailFast is the serve default (set by the CLI).
	Runner runner.Config
	// QueueDepth bounds how many requests may be admitted (waiting or
	// running) at once; excess gets 429. Default: 4x workers.
	QueueDepth int
	// Workers caps concurrently-running computations. Default: the
	// runner's resolved worker count.
	Workers int
	// DefaultTimeout bounds requests that don't send timeout_ms.
	DefaultTimeout time.Duration // default 60s
	// MaxTimeout clamps client-requested deadlines.
	MaxTimeout time.Duration // default 5m
	// Version is reported by GET /version.
	Version string
	// Adapt, when non-nil, exposes the online-adaptation controller on
	// /v1/adapt and /v1/adapt/evaluate (`mnoc serve -adapt`). The
	// controller is fed by its own replay goroutine; the server only
	// reads its RCU design pointer and status.
	Adapt *adapt.Controller
	// ArtifactServe exposes the runner's artifact store on
	// GET/HEAD/PUT /artifacts/<key> (`mnoc serve -artifact-serve`), so
	// fleet replicas configured with a remote store (docs/FLEET.md)
	// share this process's warm cache.
	ArtifactServe bool
}

// RequestMSBuckets are the bucket bounds (milliseconds) of the
// server.request_ms latency histogram (and fleet.proxy.request_ms).
// They start at 10 µs so a warm request (0.04–0.08 ms) spans several
// buckets.
var RequestMSBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000, 60_000}

// Server is one running service instance.
type Server struct {
	cfg     Config
	r       *runner.Runner
	admit   *admission
	flights *flightGroup

	requests *telemetry.Counter
	errsC    *telemetry.Counter
	timeouts *telemetry.Counter
	reqMS    *telemetry.Histogram

	// draining flips once graceful drain begins; /healthz then reports
	// 503 so load balancers stop routing before the listener closes.
	draining atomic.Bool

	// adaptEval caches the per-benchmark probe matrices priced by
	// /v1/adapt/evaluate (generated at the controller's node count).
	adaptEvalMu sync.Mutex
	adaptEval   map[string]*trace.Matrix
}

// New builds a server over a fresh runner. The server's metrics
// (server.*) are registered eagerly on the runner's registry so the
// /metrics name set is complete from the first scrape.
func New(cfg Config) (*Server, error) {
	r, err := runner.New(cfg.Runner)
	if err != nil {
		return nil, fmt.Errorf("server: building runner: %w", err)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = r.Workers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.QueueDepth < cfg.Workers {
		cfg.QueueDepth = cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	reg := r.Telemetry()
	s := &Server{
		cfg:      cfg,
		r:        r,
		admit:    newAdmission(cfg.QueueDepth, cfg.Workers, reg),
		flights:  newFlightGroup(reg.Counter("server.coalesced")),
		requests: reg.Counter("server.requests"),
		errsC:    reg.Counter("server.errors"),
		timeouts: reg.Counter("server.timeouts"),
		reqMS:    reg.Histogram("server.request_ms", RequestMSBuckets...),

		adaptEval: make(map[string]*trace.Matrix),
	}
	return s, nil
}

// Runner exposes the engine (tests and the serve command use it for
// telemetry and the cache summary).
func (s *Server) Runner() *runner.Runner { return s.r }

// Handler returns the routed http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/version", s.handleVersion)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("/v1/bench", s.handleBench)
	mux.HandleFunc("/v1/adapt", s.handleAdapt)
	mux.HandleFunc("/v1/adapt/evaluate", s.handleAdaptEvaluate)
	if s.cfg.ArtifactServe {
		mux.HandleFunc("/artifacts/", s.handleArtifacts)
	}
	return s.instrument(mux)
}

// instrument wraps the mux with the request counter and latency
// histogram.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		begin := time.Now()
		next.ServeHTTP(w, r)
		s.reqMS.Observe(float64(time.Since(begin)) / float64(time.Millisecond))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StartDrain flips /healthz to 503 `draining`. Serve calls it when its
// context is cancelled; tests call it directly.
func (s *Server) StartDrain() { s.draining.Store(true) }

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	opt := s.r.Options()
	writeJSON(w, http.StatusOK, map[string]any{
		"version": s.cfg.Version,
		// role distinguishes a backend replica from a fleet proxy
		// (which reports "proxy" plus its ring size), so `mnoc load`
		// output identifies what it hit.
		"role":    "serve",
		"ring":    1,
		"radix":   opt.N,
		"seed":    opt.Seed,
		"workers": s.cfg.Workers,
		"queue":   s.cfg.QueueDepth,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.r.Telemetry().Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WritePrometheus(w); err != nil {
			s.errsC.Inc()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rep := telemetry.Report{
		Meta:    map[string]any{"subcommand": "serve", "radix": s.r.Options().N, "seed": s.r.Options().Seed},
		Metrics: snap,
	}
	if err := rep.WriteJSON(w); err != nil {
		s.errsC.Inc()
	}
}

// SolveRequest asks for one design solve priced on one workload.
type SolveRequest struct {
	// Bench names the workload (SPLASH stand-in or syn_*).
	Bench string `json:"bench"`
	// Kind picks the design family (core.KindSpec). Default comm4.
	Kind string `json:"kind,omitempty"`
	// QAP applies the taboo thread mapping before evaluation.
	QAP bool `json:"qap,omitempty"`
	// TimeoutMS bounds the request; 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BreakdownDTO is the wire form of a power.Breakdown's per-component
// split, shared by every response that reports one (solve and
// adapt-evaluate). Embedding keeps the JSON field order of the
// embedding response unchanged: encoding/json inlines the fields at
// the embed position.
type BreakdownDTO struct {
	SourceUW float64 `json:"source_uw"`
	OEUW     float64 `json:"oe_uw"`
	ElecUW   float64 `json:"electrical_uw"`
}

func breakdownDTO(b power.Breakdown) BreakdownDTO {
	return BreakdownDTO{
		SourceUW: float64(b.SourceUW),
		OEUW:     float64(b.OEUW),
		ElecUW:   float64(b.ElectricalUW),
	}
}

// SolveResponse is the priced design.
type SolveResponse struct {
	Bench string `json:"bench"`
	Kind  string `json:"kind"`
	QAP   bool   `json:"qap"`
	BreakdownDTO
	TotalWatts float64 `json:"total_watts"`
	BaseWatts  float64 `json:"base_watts"`
	// Normalized is TotalWatts / BaseWatts — the figures' y-axis.
	Normalized float64 `json:"normalized"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Kind == "" {
		req.Kind = core.KindComm4
	}
	if err := validateSolve(req.Bench, req.Kind); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := req.FlightKey()
	s.serve(w, r, req.TimeoutMS, key, func(ctx context.Context) (any, error) {
		b, baseW, err := s.r.Context().EvaluateDesign(ctx, req.Kind, req.Bench, req.QAP)
		if err != nil {
			return nil, err
		}
		return solveResponse(req, b, baseW), nil
	})
}

func solveResponse(req SolveRequest, b power.Breakdown, baseW float64) *SolveResponse {
	return &SolveResponse{
		Bench:        req.Bench,
		Kind:         req.Kind,
		QAP:          req.QAP,
		BreakdownDTO: breakdownDTO(b),
		TotalWatts:   b.TotalWatts(),
		BaseWatts:    baseW,
		Normalized:   b.TotalWatts() / baseW,
	}
}

// maxTrafficScale bounds EvaluateRequest.Scale: far beyond any
// physical operating point, and small enough that the scaled wattage
// stays finite and so encodable as JSON.
const maxTrafficScale = 1e6

// EvaluateRequest prices a workload under a policy at a traffic scale
// and adds the simulated mNoC-vs-rNoC performance.
type EvaluateRequest struct {
	Bench string `json:"bench"`
	// Policy is the design kind to operate under (default comm4).
	Policy string `json:"policy,omitempty"`
	QAP    bool   `json:"qap,omitempty"`
	// Scale multiplies the workload's traffic volume (default 1).
	// Power is linear in traffic, so the scaled wattage is exact.
	Scale float64 `json:"scale,omitempty"`
	// LossModel picks the insertion-loss accounting: "average" (the
	// default, the paper's per-destination path loss) or "worst"
	// (longest-path loss for every destination, Li et al.).
	LossModel string `json:"loss_model,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// EvaluateResponse joins power and latency for one operating point.
type EvaluateResponse struct {
	Bench  string  `json:"bench"`
	Policy string  `json:"policy"`
	QAP    bool    `json:"qap"`
	Scale  float64 `json:"scale"`
	// LossModel echoes the non-default loss accounting; omitted for
	// the average model so existing clients see byte-identical bodies.
	LossModel  string  `json:"loss_model,omitempty"`
	TotalWatts float64 `json:"total_watts"`
	BaseWatts  float64 `json:"base_watts"`
	MNoCCycles uint64  `json:"mnoc_cycles"`
	RNoCCycles uint64  `json:"rnoc_cycles"`
	// Speedup is rnoc_cycles / mnoc_cycles (>1 means mNoC is faster).
	Speedup float64 `json:"speedup"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if req.Policy == "" {
		req.Policy = core.KindComm4
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if err := validateSolve(req.Bench, req.Policy); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Scale < 0 || req.Scale > maxTrafficScale {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: traffic scale %g outside [0, %g]", req.Scale, float64(maxTrafficScale)))
		return
	}
	model, err := power.ParseLossModel(req.LossModel)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// The canonical key derivation is shared with the fleet proxy
	// (keys.go); the loss model was validated just above, so the key
	// cannot fail here.
	key, _ := req.FlightKey()
	echo := ""
	if model != power.LossAverage {
		echo = string(model)
	}
	s.serve(w, r, req.TimeoutMS, key, func(ctx context.Context) (any, error) {
		c := s.r.Context()
		b, baseW, err := c.EvaluateDesignLoss(ctx, req.Policy, req.Bench, req.QAP, model)
		if err != nil {
			return nil, err
		}
		mc, rc, err := c.Performance(ctx, req.Bench)
		if err != nil {
			return nil, err
		}
		return &EvaluateResponse{
			Bench:      req.Bench,
			Policy:     req.Policy,
			QAP:        req.QAP,
			Scale:      req.Scale,
			LossModel:  echo,
			TotalWatts: b.TotalWatts() * req.Scale,
			BaseWatts:  baseW * req.Scale,
			MNoCCycles: mc,
			RNoCCycles: rc,
			Speedup:    float64(rc) / float64(mc),
		}, nil
	})
}

// BenchRequest runs registry experiments.
type BenchRequest struct {
	// IDs lists experiment ids (exp.Registry / exp.Extensions). A
	// single-id convenience field "id" is also accepted.
	IDs       []string `json:"ids,omitempty"`
	ID        string   `json:"id,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

func (s *Server) handleBench(w http.ResponseWriter, r *http.Request) {
	var req BenchRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	ids := req.IDs
	if req.ID != "" {
		ids = append(ids, req.ID)
	}
	if len(ids) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("server: no experiment ids"))
		return
	}
	if limit := len(exp.Registry()) + len(exp.Extensions()); len(ids) > limit {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: %d experiment ids, at most %d", len(ids), limit))
		return
	}
	for i, id := range ids {
		if slices.Contains(ids[:i], id) {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: experiment id %q repeated", id))
			return
		}
	}
	entries := make([]exp.Entry, 0, len(ids))
	for _, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			if e, err = exp.ExtensionByID(id); err != nil {
				s.writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		entries = append(entries, e)
	}
	key := req.FlightKey()
	s.serve(w, r, req.TimeoutMS, key, func(ctx context.Context) (any, error) {
		tables, err := s.r.RunEntries(ctx, entries)
		if err != nil {
			return nil, err
		}
		return tables, nil
	})
}

// handleAdapt reports the adaptation controller's status: active
// generation, estimator readings, decision tallies and the log tail.
func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Adapt == nil {
		s.writeError(w, http.StatusNotFound, errors.New("server: adaptation not enabled (run serve -adapt)"))
		return
	}
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s needs GET", r.URL.Path))
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Adapt.Status())
}

// AdaptEvaluateRequest prices one workload's traffic on whatever
// design the adaptation loop is currently serving.
type AdaptEvaluateRequest struct {
	Bench string `json:"bench"`
}

// AdaptEvaluateResponse reports the priced design. Generation pins
// which design answered: a swap between two calls shows up as a
// generation step, never as a torn read.
type AdaptEvaluateResponse struct {
	Bench      string  `json:"bench"`
	Generation uint64  `json:"generation"`
	TotalWatts float64 `json:"total_watts"`
	BreakdownDTO
}

// adaptEvalCycles is the probe horizon /v1/adapt/evaluate prices over.
const adaptEvalCycles = 100_000

func (s *Server) handleAdaptEvaluate(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Adapt == nil {
		s.writeError(w, http.StatusNotFound, errors.New("server: adaptation not enabled (run serve -adapt)"))
		return
	}
	var req AdaptEvaluateRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	m, err := s.adaptMatrix(req.Bench)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// One atomic load; the design is immutable, so the evaluation is
	// consistent even if the controller swaps mid-request.
	d := s.cfg.Adapt.Active()
	b, err := d.EvaluatePower(m, adaptEvalCycles)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, &AdaptEvaluateResponse{
		Bench:        req.Bench,
		Generation:   d.Gen,
		TotalWatts:   b.TotalWatts(),
		BreakdownDTO: breakdownDTO(b),
	})
}

// adaptMatrix returns (caching per bench) the probe traffic matrix at
// the adaptation controller's node count.
func (s *Server) adaptMatrix(bench string) (*trace.Matrix, error) {
	b, err := workload.Resolve(bench)
	if err != nil {
		return nil, err
	}
	s.adaptEvalMu.Lock()
	defer s.adaptEvalMu.Unlock()
	if m, ok := s.adaptEval[bench]; ok {
		return m, nil
	}
	m, err := b.Matrix(s.cfg.Adapt.Status().N, s.r.Options().Seed)
	if err != nil {
		return nil, err
	}
	s.adaptEval[bench] = m
	return m, nil
}

// serve is the shared request path: deadline, coalescing, admission,
// compute, respond. Coalescing wraps admission so N identical requests
// consume one queue slot and one worker.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, timeoutMS int64, key string, fn func(context.Context) (any, error)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMS))
	defer cancel()
	v, err := s.flights.Do(ctx, key, func(fctx context.Context) (any, error) {
		return s.admit.do(fctx, fn)
	})
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// timeout resolves a client timeout_ms against the configured default
// and ceiling.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// statusFor maps computation errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is never seen but pick
		// something non-5xx so error counters stay honest.
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the JSON error envelope and maintains the error
// counters.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		s.errsC.Inc()
	}
	if status == http.StatusGatewayTimeout {
		s.timeouts.Inc()
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	//mnoclint:allow hotalloc the error envelope is only built for rejected requests, off the measured decode/encode fast path
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodePost enforces POST + a body of exactly one well-formed JSON
// value of at most maxRequestBytes. Unknown fields and anything but
// whitespace after the value are rejected (400) so typoed or
// concatenated requests fail loudly; an oversized body gets a 413.
//
//mnoclint:hot
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("server: %s needs POST", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// Token returns io.EOF bare once only whitespace remains.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errTrailingData
		}
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, fmt.Errorf("server: parsing request: %w", err))
	return false
}

// errTrailingData rejects a body with more after its JSON value.
var errTrailingData = errors.New("trailing data after the JSON value")

// validateSolve rejects unknown workloads and design kinds before the
// request occupies a queue slot.
func validateSolve(bench, kind string) error {
	if _, err := workload.ByName(bench); err != nil {
		return err
	}
	if _, err := core.KindSpec(kind); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// writeJSON writes v as a JSON response in the two-space-indented form
// this server has always served (pinned by TestWriteJSON).
//
//mnoclint:hot
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve runs the service on addr (":0" picks a free port) until ctx is
// cancelled, then drains in-flight requests for up to drain before
// forcing connections closed. ready, if non-nil, is called with the
// bound address once the listener is up — `mnoc serve` prints it so
// scripts can scrape a randomly-assigned port. This is the blocking
// body of the serve command.
func (s *Server) Serve(ctx context.Context, addr string, drain time.Duration, ready func(boundAddr string)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listening on %s: %w", addr, err)
	}
	if ready != nil {
		ready(l.Addr().String())
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	//mnoclint:allow goroleak Serve returns when the drain path below closes the listener; the buffered errc never blocks the send
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip /healthz to 503 before closing the listener so load
	// balancers stop routing during the drain window.
	s.StartDrain()
	//mnoclint:allow ctxthread the serve ctx is already done here; the drain grace period needs a fresh deadline, not the cancelled parent
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("server: draining connections: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
