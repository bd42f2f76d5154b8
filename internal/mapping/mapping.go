// Package mapping solves the thread-to-core assignment problem of
// Section 4.4. Mapping frequently-communicating threads to cores near
// the middle of the serpentine waveguide (where broadcast power is
// lowest, Fig. 6) is an instance of the quadratic assignment problem
// (QAP); the paper uses Taillard's robust taboo search and Connolly's
// improved simulated annealing, and finds taboo generally best.
//
// The problem minimises Σ flow[t1][t2]·cost[loc(t1)][loc(t2)] over
// permutations, where flow is the thread×thread traffic matrix and cost
// is the core×core single-mode power cost ("the assignment accounts for
// only the waveguide loss between a source and destination").
package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mnoc/internal/trace"
	"mnoc/internal/waveguide"
)

// Problem is a QAP instance.
type Problem struct {
	N    int
	Flow [][]float64 // Flow[t1][t2]: traffic from thread t1 to t2
	Cost [][]float64 // Cost[c1][c2]: power cost of a c1→c2 packet
}

// NewProblem validates and wraps a QAP instance.
func NewProblem(flow, cost [][]float64) (*Problem, error) {
	n := len(flow)
	if n < 2 {
		return nil, fmt.Errorf("mapping: need >= 2 threads, got %d", n)
	}
	if len(cost) != n {
		return nil, fmt.Errorf("mapping: flow is %d×, cost is %d×", n, len(cost))
	}
	for i := 0; i < n; i++ {
		if len(flow[i]) != n || len(cost[i]) != n {
			return nil, fmt.Errorf("mapping: ragged matrix at row %d", i)
		}
	}
	return &Problem{N: n, Flow: flow, Cost: cost}, nil
}

// FromTraffic builds the paper's mapping problem: flow from a traffic
// matrix, cost from the waveguide's single-mode path loss
// (1/transmission, so farther pairs cost exponentially more).
func FromTraffic(m *trace.Matrix, l waveguide.Layout) (*Problem, error) {
	if m.N != l.N {
		return nil, fmt.Errorf("mapping: matrix size %d vs layout %d", m.N, l.N)
	}
	cost := make([][]float64, l.N)
	for i := range cost {
		cost[i] = make([]float64, l.N)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 1 / float64(l.PathTransmission(i, j))
			}
		}
	}
	return NewProblem(m.Counts, cost)
}

// Assignment maps thread → core; it is always a permutation.
type Assignment []int

// Identity returns the naive mapping (thread t on core t).
func Identity(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = i
	}
	return a
}

// Validate checks the assignment is a permutation of 0..n-1.
func (a Assignment) Validate(n int) error {
	if len(a) != n {
		return fmt.Errorf("mapping: assignment length %d, want %d", len(a), n)
	}
	seen := make([]bool, n)
	for t, c := range a {
		if c < 0 || c >= n {
			return fmt.Errorf("mapping: thread %d on core %d out of range", t, c)
		}
		if seen[c] {
			return fmt.Errorf("mapping: core %d used twice", c)
		}
		seen[c] = true
	}
	return nil
}

// Objective evaluates the QAP cost of an assignment.
func (p *Problem) Objective(a Assignment) float64 {
	sum := 0.0
	for i := 0; i < p.N; i++ {
		fi, ci := p.Flow[i], p.Cost[a[i]]
		for j := 0; j < p.N; j++ {
			if v := fi[j]; v != 0 {
				sum += v * ci[a[j]]
			}
		}
	}
	return sum
}

// kernel is one search call's view of a Problem for scoring swaps. It
// holds flat n×n transposes of Flow and Cost, so every column the swap
// delta reads is a contiguous row. A kernel is built per call and never
// cached on the Problem: its fields are exported, and concurrent
// searches share one Problem.
type kernel struct {
	n            int
	flow, cost   [][]float64
	flowT, costT []float64 // flowT[j*n+i] = Flow[i][j], likewise costT
}

func (p *Problem) kernel() kernel {
	n := p.N
	k := kernel{n: n, flow: p.Flow, cost: p.Cost,
		flowT: make([]float64, n*n), costT: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		fi, ci := p.Flow[i][:n], p.Cost[i][:n]
		for j := 0; j < n; j++ {
			k.flowT[j*n+i] = fi[j]
			k.costT[j*n+i] = ci[j]
		}
	}
	return k
}

// rowFT returns column i of Flow; rowCT returns column i of Cost.
func (k *kernel) rowFT(i int) []float64 { return k.flowT[i*k.n:][:k.n] }
func (k *kernel) rowCT(i int) []float64 { return k.costT[i*k.n:][:k.n] }

// swapDelta computes the objective change of swapping the cores of
// threads r and s (general asymmetric form, O(n)).
func (k *kernel) swapDelta(a Assignment, r, s int) float64 {
	n := k.n
	a = a[:n]
	ar, as := a[r], a[s]
	fr, fs := k.flow[r][:n], k.flow[s][:n]
	ftr, fts := k.rowFT(r), k.rowFT(s)
	car, cas := k.cost[ar][:n], k.cost[as][:n]
	ctar, ctas := k.rowCT(ar), k.rowCT(as)
	d := fr[s]*(cas[ar]-car[as]) +
		fs[r]*(car[as]-cas[ar])
	// Sum over t ∉ {r, s} in increasing t: the three runs between them.
	lo, hi := min(r, s), max(r, s)
	for _, run := range [3][2]int{{0, lo}, {lo + 1, hi}, {hi + 1, n}} {
		for t := run[0]; t < run[1]; t++ {
			at := a[t]
			d += ftr[t]*(ctas[at]-ctar[at]) +
				fts[t]*(ctar[at]-ctas[at]) +
				fr[t]*(cas[at]-car[at]) +
				fs[t]*(car[at]-cas[at])
		}
	}
	return d
}

// GreedySwaps runs up to k steps of best-improvement search from start
// (copied, not mutated). Each step scores every pair i < j by its O(n)
// swap delta and applies the swap with the largest strictly positive
// gain, the first in row-major (i, j) order on ties; it stops early
// when no swap gains. It returns the result and the swaps applied.
//
//mnoclint:hot
func (p *Problem) GreedySwaps(start Assignment, k int) (Assignment, int) {
	kn := p.kernel()
	n := p.N
	cand := append(Assignment(nil), start...)
	swaps := 0
	for ; swaps < k; swaps++ {
		bestI, bestJ, bestGain := -1, -1, 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if gain := -kn.swapDelta(cand, i, j); gain > bestGain {
					bestI, bestJ, bestGain = i, j, gain
				}
			}
		}
		if bestI < 0 {
			break
		}
		cand[bestI], cand[bestJ] = cand[bestJ], cand[bestI]
	}
	return cand, swaps
}

// TabooOptions tunes the robust taboo search.
type TabooOptions struct {
	// Iterations is the number of moves to perform (default 40·n).
	Iterations int
	// Seed makes runs reproducible.
	Seed int64
	// MinTenure/MaxTenure bound the randomised tabu tenure
	// (defaults 0.9·n and 1.1·n, per Taillard's robust scheme).
	MinTenure, MaxTenure int
}

func (o *TabooOptions) fill(n int) {
	if o.Iterations <= 0 {
		o.Iterations = 40 * n
	}
	if o.MinTenure <= 0 {
		o.MinTenure = int(0.9 * float64(n))
	}
	if o.MaxTenure <= o.MinTenure {
		o.MaxTenure = int(1.1*float64(n)) + 1
	}
}

// Taboo runs Taillard's robust taboo search from the given start
// assignment (copied, not mutated) and returns the best found.
//
//mnoclint:hot
func (p *Problem) Taboo(start Assignment, opt TabooOptions) Assignment {
	opt.fill(p.N)
	rng := rand.New(rand.NewSource(opt.Seed))
	n := p.N
	kn := p.kernel()

	cur := append(Assignment(nil), start...)
	best := append(Assignment(nil), cur...)
	curV := p.Objective(cur)
	bestV := curV

	// delta[r*n+s] caches swapDelta(cur, r, s) for r < s.
	delta := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for s := r + 1; s < n; s++ {
			delta[r*n+s] = kn.swapDelta(cur, r, s)
		}
	}
	// tabuUntil[t*n+c] forbids placing thread t back on core c until
	// the stored iteration.
	tabuUntil := make([]int, n*n)

	for iter := 1; iter <= opt.Iterations; iter++ {
		bestR, bestS := -1, -1
		bestD := math.Inf(1)
		for r := 0; r < n; r++ {
			dr, tr := delta[r*n:(r+1)*n], tabuUntil[r*n:(r+1)*n]
			cr := cur[r]
			for s := r + 1; s < n; s++ {
				d := dr[s]
				tabu := iter < tr[cur[s]] || iter < tabuUntil[s*n+cr]
				aspired := curV+d < bestV-1e-12
				if tabu && !aspired {
					continue
				}
				if d < bestD {
					bestD, bestR, bestS = d, r, s
				}
			}
		}
		if bestR < 0 {
			// Everything tabu: pick a random move to keep going.
			bestR = rng.Intn(n)
			bestS = (bestR + 1 + rng.Intn(n-1)) % n
			if bestR > bestS {
				bestR, bestS = bestS, bestR
			}
			bestD = delta[bestR*n+bestS]
		}

		u, v := bestR, bestS
		tenure := opt.MinTenure + rng.Intn(opt.MaxTenure-opt.MinTenure)
		tabuUntil[u*n+cur[u]] = iter + tenure
		tabuUntil[v*n+cur[v]] = iter + tenure

		cur[u], cur[v] = cur[v], cur[u]
		curV += bestD
		if curV < bestV {
			bestV = curV
			copy(best, cur)
		}

		// Refresh the delta cache. Pairs touching {u,v} are recomputed;
		// the rest get Taillard's O(1) incremental update. cur is
		// already swapped: au is thread u's new core (the old core of
		// v) and vice versa.
		au, av := cur[u], cur[v]
		fu, fv := kn.flow[u][:n], kn.flow[v][:n]
		ftu, ftv := kn.rowFT(u), kn.rowFT(v)
		cau, cav := kn.cost[au][:n], kn.cost[av][:n]
		ctau, ctav := kn.rowCT(au), kn.rowCT(av)
		for r := 0; r < n; r++ {
			dr := delta[r*n : (r+1)*n]
			ar := cur[r]
			ruv, urv := ftu[r]-ftv[r], fu[r]-fv[r]
			ctauR, ctavR, cauR, cavR := ctau[ar], ctav[ar], cau[ar], cav[ar]
			for s := r + 1; s < n; s++ {
				if r == u || r == v || s == u || s == v {
					dr[s] = kn.swapDelta(cur, r, s)
					continue
				}
				as := cur[s]
				d := dr[s]
				d += ruv * (ctau[as] - ctav[as] + ctavR - ctauR)
				d += (ftu[s] - ftv[s]) * (ctauR - ctavR + ctav[as] - ctau[as])
				d += urv * (cau[as] - cav[as] + cavR - cauR)
				d += (fu[s] - fv[s]) * (cauR - cavR + cav[as] - cau[as])
				dr[s] = d
			}
		}
	}
	return best
}

// AnnealOptions tunes the simulated annealing run.
type AnnealOptions struct {
	// Iterations is the number of attempted moves (default 200·n).
	Iterations int
	Seed       int64
}

func (o *AnnealOptions) fill(n int) {
	if o.Iterations <= 0 {
		o.Iterations = 200 * n
	}
}

// Anneal runs Connolly-style simulated annealing: the initial and final
// temperatures are derived from sampled move deltas and the temperature
// follows the T/(1+βT) cooling schedule.
func (p *Problem) Anneal(start Assignment, opt AnnealOptions) Assignment {
	opt.fill(p.N)
	rng := rand.New(rand.NewSource(opt.Seed))
	n := p.N

	kn := p.kernel()

	cur := append(Assignment(nil), start...)
	best := append(Assignment(nil), cur...)
	curV := p.Objective(cur)
	bestV := curV

	// Sample deltas to pick Connolly's T0 = Δmin + (Δmax−Δmin)/10 and
	// Tf = Δmin.
	dmin, dmax := math.Inf(1), math.Inf(-1)
	for k := 0; k < 2*n; k++ {
		r := rng.Intn(n)
		s := (r + 1 + rng.Intn(n-1)) % n
		d := math.Abs(kn.swapDelta(cur, r, s))
		if d == 0 {
			continue
		}
		if d < dmin {
			dmin = d
		}
		if d > dmax {
			dmax = d
		}
	}
	if math.IsInf(dmin, 1) { // completely flat landscape
		return best
	}
	t0 := dmin + (dmax-dmin)/10
	tf := dmin
	beta := (t0 - tf) / (float64(opt.Iterations) * t0 * tf)
	temp := t0

	for iter := 0; iter < opt.Iterations; iter++ {
		r := rng.Intn(n)
		s := (r + 1 + rng.Intn(n-1)) % n
		d := kn.swapDelta(cur, r, s)
		if d < 0 || rng.Float64() < math.Exp(-d/temp) {
			cur[r], cur[s] = cur[s], cur[r]
			curV += d
			if curV < bestV {
				bestV = curV
				copy(best, cur)
			}
		}
		temp = temp / (1 + beta*temp)
	}
	return best
}

// CenterGreedy is a fast constructive heuristic: threads sorted by total
// traffic are placed onto cores sorted by their broadcast-power rank
// (middle of the waveguide first). It is both a baseline and a good
// taboo start.
func (p *Problem) CenterGreedy() Assignment {
	n := p.N
	// Thread heat: total in+out traffic.
	heat := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			heat[i] += p.Flow[i][j] + p.Flow[j][i]
		}
	}
	threads := Identity(n)
	sortByDesc(threads, heat)

	// Core cheapness: total cost to reach everyone (Fig. 6 profile).
	coreCost := make([]float64, n)
	for c := 0; c < n; c++ {
		for d := 0; d < n; d++ {
			coreCost[c] += p.Cost[c][d]
		}
	}
	cores := Identity(n)
	sortByAsc(cores, coreCost)

	a := make(Assignment, n)
	for rank, t := range threads {
		a[t] = cores[rank]
	}
	return a
}

func sortByDesc(idx []int, key []float64) {
	sort.Slice(idx, func(a, b int) bool {
		if key[idx[a]] != key[idx[b]] {
			return key[idx[a]] > key[idx[b]]
		}
		return idx[a] < idx[b]
	})
}

func sortByAsc(idx []int, key []float64) {
	sort.Slice(idx, func(a, b int) bool {
		if key[idx[a]] != key[idx[b]] {
			return key[idx[a]] < key[idx[b]]
		}
		return idx[a] < idx[b]
	})
}

// Solve runs the paper's preferred pipeline: CenterGreedy start, then
// robust taboo ("we explore both Taboo and simulated annealing, and
// find that Taboo generally performs best").
func (p *Problem) Solve(seed int64) Assignment {
	return p.Taboo(p.CenterGreedy(), TabooOptions{Seed: seed})
}
