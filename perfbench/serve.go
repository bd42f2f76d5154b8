package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/power"
	"mnoc/internal/runner"
	"mnoc/internal/server"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

const (
	// serveClients is the closed loop's client count, one per core.
	serveClients = 2
	// serveRound is the length of one measured round of requests.
	serveRound = time.Second
	// computeReps is how often the traced run prices every key outside
	// the handler.
	computeReps = 20
)

// serveKey is one request of the warm key set.
type serveKey struct {
	path  string
	key   string // the server's flight key, which names the digest
	class string // solve, evaluate or evaluate_worst
	span  string // "server.<class>"
	body  []byte
	bench string
	kind  string
	qap   bool
	model power.LossModel
}

// serveKeys is the whole key set: every benchmark, design kind and QAP
// setting as a /v1/solve and as a /v1/evaluate. Half the evaluates
// price worst-case loss; all scale the traffic.
func serveKeys() ([]serveKey, error) {
	var keys []serveKey
	for bi, b := range workload.Names() {
		for ki, kind := range exp.DesignKinds() {
			for qi, qap := range []bool{false, true} {
				sr := server.SolveRequest{Bench: b, Kind: kind, QAP: qap}
				er := server.EvaluateRequest{Bench: b, Policy: kind, QAP: qap, Scale: 1.5}
				ek := serveKey{path: "/v1/evaluate", class: "evaluate", bench: b, kind: kind, qap: qap, model: power.LossAverage}
				if (bi+ki+qi)%2 == 1 {
					er.Scale, er.LossModel = 0.5, string(power.LossWorst)
					ek.class, ek.model = "evaluate_worst", power.LossWorst
				}
				ek.span = "server." + ek.class
				var err error
				if ek.key, err = er.FlightKey(); err != nil {
					return nil, err
				}
				sk := serveKey{path: "/v1/solve", key: sr.FlightKey(), class: "solve", span: "server.solve",
					bench: b, kind: kind, qap: qap, model: power.LossAverage}
				if sk.body, err = json.Marshal(sr); err != nil {
					return nil, err
				}
				if ek.body, err = json.Marshal(er); err != nil {
					return nil, err
				}
				keys = append(keys, sk, ek)
			}
		}
	}
	return keys, nil
}

// send issues one request through the handler, as a client would see
// it: status and body.
func send(h http.Handler, k *serveKey) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, k.path, bytes.NewReader(k.body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

// runServe measures warm requests: after a fresh server is warmed over
// the whole key set, serveClients closed-loop clients send the keys in
// seeded order and every body must equal the warm-up body for its
// key. No solve runs in the measured rounds.
func runServe(cfg config) (*result, error) {
	return serveWith(cfg, nil)
}

// serveWith is runServe over an explicit key set (nil: serveKeys).
func serveWith(cfg config, keys []serveKey) (*result, error) {
	res := newResult()
	if keys == nil {
		var err error
		if keys, err = serveKeys(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: a fresh server warmed through the handler, i.e. the cold
	// cost of every key. The last one serves the measured rounds.
	var setups setupTimes
	var s *server.Server
	var h http.Handler
	var warm [][]byte
	var born time.Time // when the measured server's tracer started
	for i := 0; i < setupReps; i++ {
		codes := make([]int, len(keys))
		err := setups.timeSetup(cfg.ref, func() error {
			born = time.Now()
			var err error
			s, err = server.New(server.Config{Runner: runner.Config{Options: &cfg.opt, Workers: serveClients, FailFast: true}})
			if err != nil {
				return err
			}
			h = s.Handler()
			warm = make([][]byte, len(keys))
			jobs := make([]func() error, len(keys))
			for j, p := range rng.Perm(len(keys)) {
				jobs[j] = func() error { codes[p], warm[p] = send(h, &keys[p]); return nil }
			}
			return onWorkers(serveClients, jobs)
		})
		if err != nil {
			return nil, err
		}
		for j := range keys {
			problem := ""
			if codes[j] != http.StatusOK {
				problem = fmt.Sprintf("%s: warm-up status %d", keys[j].key, codes[j])
			} else {
				problem = cfg.expect.check(keys[j].key, warm[j])
			}
			res.op(problem)
		}
	}

	tel := s.Runner().Telemetry()
	counterNames := append(append([]string{}, regenCounters...), "server.coalesced", "server.rejected")
	start := tel.Snapshot().Counters
	rec := newRecorder()
	var plainMallocs uint64
	plain, traced, err := rounds(cfg, 1, 1, func(i int, tr bool) (*opStats, error) {
		var pr *recorder
		if tr {
			pr = rec
		}
		seeds := make([]int64, serveClients)
		for c := range seeds {
			seeds[c] = rng.Int63()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		round := pr.start(0, "serve.round", "")
		cl := serveRoundOn(h, keys, warm, seeds, min(serveRound, cfg.window), pr, round.id)
		busy := round.end()
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		st := &opStats{busy: busy, latency: true}
		for _, c := range cl {
			st.durs = append(st.durs, c.durs...)
			res.ops(c.attempted, c.failed, c.problems)
		}
		st.cpuPerOp = []float64{ms(cpu) / float64(len(st.durs))}
		st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		if !tr {
			plainMallocs += m1.Mallocs - m0.Mallocs
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	end := tel.Snapshot().Counters

	res.measured(plain, traced, &setups, cfg)
	res.aliases["serve_rps"] = res.e2e["wall.ops_per_s"]
	res.aliases["serve_p50_us"] = res.e2e["wall.op_p50_ms"] * 1000
	res.aliases["serve_p99_us"] = us(quantile(plain.durs, 0.99))
	if !cfg.traced {
		return res, nil
	}
	computeWall, err := computeOutside(s.Runner().Context(), keys, rng, rec)
	if err != nil {
		return nil, err
	}
	rec.addProgram(s.Runner().Tracer(), born.Sub(rec.epoch), func(telemetry.Span) int64 { return -1 })
	res.spans = rec.all()
	res.table = layerTable(res.spans)
	res.tableWall = traced.busy + computeWall
	rows := rowByName(res.table)
	mean := func(name string) float64 {
		r := rows[name]
		if r.Count == 0 {
			return 0
		}
		return us(r.Self) / float64(r.Count)
	}
	for _, name := range []string{"server.solve", "server.evaluate", "server.evaluate_worst",
		"exp.evaluate_design", "exp.performance", "power.evaluate", "power.reprice_worst"} {
		res.layers[name+"_us"] = mean(name)
	}
	// Compute per request: the calls the handler makes, averaged over
	// the key set, which the clients visit uniformly.
	handler := rows["server.solve"].Self + rows["server.evaluate"].Self + rows["server.evaluate_worst"].Self
	requests := rows["server.solve"].Count + rows["server.evaluate"].Count + rows["server.evaluate_worst"].Count
	compute := rows["exp.evaluate_design"].Self + rows["exp.performance"].Self
	res.layers["server.overhead_us"] = us(handler)/float64(requests) - us(compute)/float64(rows["exp.evaluate_design"].Count)
	res.layers["server.allocs_per_req"] = float64(plainMallocs) / float64(len(plain.durs))
	for _, c := range counterNames {
		res.layers[c] = float64(end[c] - start[c])
	}
	return res, nil
}

// clientOut is one client's share of a round.
type clientOut struct {
	durs              []time.Duration
	attempted, failed int
	problems          []string
}

// serveRoundOn runs one round of the given length: each client sends
// the keys in its own seeded order until the time is up.
func serveRoundOn(h http.Handler, keys []serveKey, warm [][]byte, seeds []int64, length time.Duration, rec *recorder, parent int64) []clientOut {
	deadline := time.Now().Add(length)
	out := make([]clientOut, len(seeds))
	var wg sync.WaitGroup
	for c := range seeds {
		wg.Add(1)
		go func(o *clientOut, rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for _, i := range rng.Perm(len(keys)) {
					k := &keys[i]
					sp := rec.start(parent, k.span, k.key)
					code, body := send(h, k)
					o.durs = append(o.durs, sp.end())
					o.attempted++
					if code != http.StatusOK || !bytes.Equal(body, warm[i]) {
						o.failed++
						if len(o.problems) < 10 {
							o.problems = append(o.problems, fmt.Sprintf("%s: status %d, body differs from warm-up: %t", k.key, code, !bytes.Equal(body, warm[i])))
						}
					}
					if !time.Now().Before(deadline) {
						return
					}
				}
			}
		}(&out[c], rand.New(rand.NewSource(seeds[c])))
	}
	wg.Wait()
	return out
}

// computeOutside times, on serveClients goroutines, the calls the
// handler makes for each key, on the same inputs: the design
// evaluation, the performance memo, and the power evaluation and
// worst-case repricing beneath them. It returns its wall time.
func computeOutside(c *exp.Context, keys []serveKey, rng *rand.Rand, rec *recorder) (time.Duration, error) {
	ctx := context.Background()
	type input struct {
		net *power.MNoC
		m   *trace.Matrix
	}
	inputs := make([]input, len(keys))
	for i, k := range keys {
		net, err := c.DesignNetwork(ctx, k.kind)
		if err != nil {
			return 0, err
		}
		if net, err = net.WithLossModel(k.model); err != nil {
			return 0, err
		}
		m, err := c.Shape(ctx, k.bench)
		if err != nil {
			return 0, err
		}
		if k.qap {
			a, err := c.QAPMapping(ctx, k.bench)
			if err != nil {
				return 0, err
			}
			if m, err = m.Permute(a); err != nil {
				return 0, err
			}
		}
		inputs[i] = input{net, m}
	}
	root := rec.start(0, "compute.outside", "")
	var jobs []func() error
	for r := 0; r < computeReps; r++ {
		for _, i := range rng.Perm(len(keys)) {
			k, in := &keys[i], inputs[i]
			jobs = append(jobs, func() error {
				sp := rec.start(root.id, "exp.evaluate_design", k.key)
				_, _, err := c.EvaluateDesignLoss(ctx, k.kind, k.bench, k.qap, k.model)
				sp.end()
				if err != nil {
					return err
				}
				if k.path == "/v1/evaluate" {
					sp = rec.start(root.id, "exp.performance", k.key)
					_, _, err = c.Performance(ctx, k.bench)
					sp.end()
					if err != nil {
						return err
					}
				}
				sp = rec.start(root.id, "power.evaluate", k.key)
				_, err = in.net.Evaluate(in.m, c.Opt.Cycles)
				sp.end()
				if err != nil || k.model != power.LossWorst {
					return err
				}
				net, err := c.DesignNetwork(ctx, k.kind)
				if err != nil {
					return err
				}
				sp = rec.start(root.id, "power.reprice_worst", k.key)
				_, err = net.WithLossModel(power.LossWorst)
				sp.end()
				return err
			})
		}
	}
	err := onWorkers(serveClients, jobs)
	return root.end(), err
}
