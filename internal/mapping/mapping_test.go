package mapping

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mnoc/internal/trace"
	"mnoc/internal/waveguide"
	"mnoc/internal/workload"
)

func randomProblem(t *testing.T, n int, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	flow := make([][]float64, n)
	cost := make([][]float64, n)
	for i := 0; i < n; i++ {
		flow[i] = make([]float64, n)
		cost[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			flow[i][j] = float64(rng.Intn(20))
			cost[i][j] = 1 + rng.Float64()*10
		}
	}
	p, err := NewProblem(flow, cost)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemRejections(t *testing.T) {
	if _, err := NewProblem([][]float64{{0}}, [][]float64{{0}}); err == nil {
		t.Error("1-thread problem accepted")
	}
	if _, err := NewProblem(make([][]float64, 3), make([][]float64, 2)); err == nil {
		t.Error("mismatched sizes accepted")
	}
	flow := [][]float64{{0, 1}, {1, 0}}
	ragged := [][]float64{{0, 1}, {1}}
	if _, err := NewProblem(flow, ragged); err == nil {
		t.Error("ragged cost accepted")
	}
}

func TestIdentityAndValidate(t *testing.T) {
	a := Identity(5)
	if err := a.Validate(5); err != nil {
		t.Fatal(err)
	}
	bad := Assignment{0, 0, 1, 2, 3}
	if err := bad.Validate(5); err == nil {
		t.Error("duplicate core accepted")
	}
	if err := Identity(4).Validate(5); err == nil {
		t.Error("short assignment accepted")
	}
	if err := (Assignment{0, 1, 2, 3, 9}).Validate(5); err == nil {
		t.Error("out-of-range core accepted")
	}
}

// refSwapDelta is the swap delta read straight from the row-major Flow
// and Cost. The kernel reads columns from flat transposes but keeps
// every operand and the operator tree, so the two must agree bit for
// bit.
func refSwapDelta(p *Problem, a Assignment, r, s int) float64 {
	ar, as := a[r], a[s]
	d := p.Flow[r][s]*(p.Cost[as][ar]-p.Cost[ar][as]) +
		p.Flow[s][r]*(p.Cost[ar][as]-p.Cost[as][ar])
	for k := 0; k < p.N; k++ {
		if k == r || k == s {
			continue
		}
		ak := a[k]
		d += p.Flow[k][r]*(p.Cost[ak][as]-p.Cost[ak][ar]) +
			p.Flow[k][s]*(p.Cost[ak][ar]-p.Cost[ak][as]) +
			p.Flow[r][k]*(p.Cost[as][ak]-p.Cost[ar][ak]) +
			p.Flow[s][k]*(p.Cost[ar][ak]-p.Cost[as][ak])
	}
	return d
}

func TestSwapDeltaMatchesObjective(t *testing.T) {
	p := randomProblem(t, 12, 3)
	kn := p.kernel()
	a := Identity(12)
	rng := rand.New(rand.NewSource(4))
	reversed := 0
	for trial := 0; trial < 200; trial++ {
		r := rng.Intn(12)
		s := (r + 1 + rng.Intn(11)) % 12
		if r > s {
			reversed++
		}
		before := p.Objective(a)
		d := kn.swapDelta(a, r, s)
		if ref := refSwapDelta(p, a, r, s); math.Float64bits(d) != math.Float64bits(ref) {
			t.Fatalf("trial %d (r=%d s=%d): kernel delta %v, row-major delta %v", trial, r, s, d, ref)
		}
		a[r], a[s] = a[s], a[r]
		after := p.Objective(a)
		if math.Abs((after-before)-d) > 1e-6*math.Max(1, math.Abs(d)) {
			t.Fatalf("trial %d (r=%d s=%d): delta %v, actual %v", trial, r, s, d, after-before)
		}
	}
	if reversed == 0 {
		t.Fatal("no trial had r > s")
	}
}

// objectiveScan is the greedy swap search as the dynamic controller
// first wrote it: every candidate is scored by rescoring the whole
// objective. It returns the swaps it applied, in order.
func objectiveScan(p *Problem, start Assignment, k int) (Assignment, [][2]int) {
	cand := append(Assignment(nil), start...)
	var swaps [][2]int
	for step := 0; step < k; step++ {
		bestI, bestJ, bestGain := -1, -1, 0.0
		before := p.Objective(cand)
		for i := 0; i < p.N; i++ {
			for j := i + 1; j < p.N; j++ {
				cand[i], cand[j] = cand[j], cand[i]
				gain := before - p.Objective(cand)
				cand[i], cand[j] = cand[j], cand[i]
				if gain > bestGain {
					bestI, bestJ, bestGain = i, j, gain
				}
			}
		}
		if bestI < 0 {
			break
		}
		cand[bestI], cand[bestJ] = cand[bestJ], cand[bestI]
		swaps = append(swaps, [2]int{bestI, bestJ})
	}
	return cand, swaps
}

// TestGreedySwapsMatchesObjectiveScan pins GreedySwaps to the
// Objective-difference search it replaced. Flows and costs are small
// integers, so both scorers compute every gain exactly: zero flows,
// exact ties and no-gain instances then have one right answer, which
// both must pick.
func TestGreedySwapsMatchesObjectiveScan(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 4 + trial%21
		flow := make([][]float64, n)
		cost := make([][]float64, n)
		for i := range flow {
			flow[i] = make([]float64, n)
			cost[i] = make([]float64, n)
		}
		sparse := trial%3 == 0   // mostly zero flows
		flat := trial%5 == 0     // two cost levels: many exact ties
		silent := trial%20 == 19 // no traffic at all: no swap gains
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if !silent && (!sparse || rng.Intn(4) == 0) {
					flow[i][j] = float64(rng.Intn(6))
				}
				if flat {
					cost[i][j] = float64(1 + rng.Intn(2))
				} else {
					cost[i][j] = float64(1 + rng.Intn(4))
				}
			}
		}
		p, err := NewProblem(flow, cost)
		if err != nil {
			t.Fatal(err)
		}
		start := Identity(n)
		rng.Shuffle(n, func(i, j int) { start[i], start[j] = start[j], start[i] })

		want, wantSwaps := objectiveScan(p, start, k)
		got, applied := p.GreedySwaps(start, k)
		if applied != len(wantSwaps) {
			t.Fatalf("trial %d (n=%d): %d swaps, Objective scan made %d", trial, n, applied, len(wantSwaps))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): final %v, Objective scan %v", trial, n, got, want)
		}
		// GreedySwaps(start, j) is the first j steps of the search, so
		// consecutive prefixes differ in exactly the j-th swap.
		prev := start
		for j, sw := range wantSwaps {
			next, _ := p.GreedySwaps(start, j+1)
			var moved []int
			for i := range next {
				if next[i] != prev[i] {
					moved = append(moved, i)
				}
			}
			if len(moved) != 2 || moved[0] != sw[0] || moved[1] != sw[1] {
				t.Fatalf("trial %d (n=%d) step %d: swapped %v, Objective scan swapped %v", trial, n, j, moved, sw)
			}
			prev = next
		}
	}
}

func TestGreedySwapsLeavesStartAlone(t *testing.T) {
	p := randomProblem(t, 10, 2)
	start := Identity(10)
	got, swaps := p.GreedySwaps(start, 3)
	if !slices.Equal(start, Identity(10)) {
		t.Fatalf("start mutated to %v", start)
	}
	if swaps != 3 || p.Objective(got) >= p.Objective(start) {
		t.Errorf("%d swaps, objective %v from %v", swaps, p.Objective(got), p.Objective(start))
	}
	if _, swaps := p.GreedySwaps(start, 0); swaps != 0 {
		t.Errorf("k=0 made %d swaps", swaps)
	}
}

func TestTabooImprovesOverIdentity(t *testing.T) {
	p := randomProblem(t, 20, 5)
	id := Identity(20)
	got := p.Taboo(id, TabooOptions{Seed: 1, Iterations: 500})
	if err := got.Validate(20); err != nil {
		t.Fatal(err)
	}
	if p.Objective(got) >= p.Objective(id) {
		t.Errorf("taboo did not improve: %v >= %v", p.Objective(got), p.Objective(id))
	}
}

func TestTabooFindsOptimumOnTinyInstance(t *testing.T) {
	// 4 threads: exhaustive optimum vs taboo.
	p := randomProblem(t, 4, 9)
	best := math.Inf(1)
	perm := []int{0, 1, 2, 3}
	var rec func(k int)
	rec = func(k int) {
		if k == 4 {
			if v := p.Objective(perm); v < best {
				best = v
			}
			return
		}
		for i := k; i < 4; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	got := p.Taboo(Identity(4), TabooOptions{Seed: 2, Iterations: 200})
	if v := p.Objective(got); math.Abs(v-best) > 1e-9 {
		t.Errorf("taboo found %v, optimum %v", v, best)
	}
}

func TestTabooDeterministic(t *testing.T) {
	p := randomProblem(t, 16, 8)
	a := p.Taboo(Identity(16), TabooOptions{Seed: 7, Iterations: 300})
	b := p.Taboo(Identity(16), TabooOptions{Seed: 7, Iterations: 300})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("taboo not deterministic for equal seeds")
		}
	}
}

func TestAnnealImprovesOverIdentity(t *testing.T) {
	p := randomProblem(t, 20, 6)
	id := Identity(20)
	got := p.Anneal(id, AnnealOptions{Seed: 3, Iterations: 4000})
	if err := got.Validate(20); err != nil {
		t.Fatal(err)
	}
	if p.Objective(got) >= p.Objective(id) {
		t.Errorf("anneal did not improve: %v >= %v", p.Objective(got), p.Objective(id))
	}
}

func TestAnnealHandlesFlatLandscape(t *testing.T) {
	n := 6
	flow := make([][]float64, n)
	cost := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
		cost[i] = make([]float64, n)
	}
	p, err := NewProblem(flow, cost)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Anneal(Identity(n), AnnealOptions{Seed: 1})
	if err := got.Validate(n); err != nil {
		t.Fatal(err)
	}
}

func TestCenterGreedyPlacesHotThreadsOnCheapCores(t *testing.T) {
	// Build a problem where thread 0 is by far the hottest and core 2
	// (of 5) is by far the cheapest.
	n := 5
	flow := make([][]float64, n)
	cost := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 10
			}
		}
	}
	flow[0][1], flow[0][3] = 100, 100
	for j := 0; j < n; j++ {
		if j != 2 {
			cost[2][j] = 1
		}
	}
	p, err := NewProblem(flow, cost)
	if err != nil {
		t.Fatal(err)
	}
	a := p.CenterGreedy()
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 {
		t.Errorf("hottest thread on core %d, want 2", a[0])
	}
}

func TestFromTrafficCostsGrowWithDistance(t *testing.T) {
	m := trace.NewMatrix(16)
	p, err := FromTraffic(m, waveguide.NewSerpentine(16))
	if err != nil {
		t.Fatal(err)
	}
	if !(p.Cost[0][15] > p.Cost[0][1]) {
		t.Errorf("far cost %v not above near cost %v", p.Cost[0][15], p.Cost[0][1])
	}
	if p.Cost[3][3] != 0 {
		t.Errorf("self cost = %v, want 0", p.Cost[3][3])
	}
	if _, err := FromTraffic(trace.NewMatrix(8), waveguide.NewSerpentine(16)); err == nil {
		t.Error("size mismatch accepted")
	}
}

// TestSolveConcentratesTrafficAtWaveguideCenter reproduces the paper's
// qualitative Fig. 7 result on a real workload shape: after QAP mapping,
// traffic-weighted positions move toward the middle of the waveguide.
func TestSolveConcentratesTrafficAtWaveguideCenter(t *testing.T) {
	n := 64
	bench, err := workload.ByName("water_s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bench.Matrix(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := FromTraffic(m, waveguide.NewSerpentine(n))
	if err != nil {
		t.Fatal(err)
	}
	a := prob.Taboo(prob.CenterGreedy(), TabooOptions{Seed: 1, Iterations: 800})
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	naive := Identity(n)
	if got, want := prob.Objective(a), prob.Objective(naive); got >= want {
		t.Fatalf("QAP objective %v not below naive %v", got, want)
	}

	center := float64(n-1) / 2
	spread := func(asgn Assignment) float64 {
		num, den := 0.0, 0.0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				v := m.Counts[s][d]
				if v == 0 {
					continue
				}
				num += v * (math.Abs(float64(asgn[s])-center) + math.Abs(float64(asgn[d])-center))
				den += v
			}
		}
		return num / den
	}
	if sm, sn := spread(a), spread(naive); sm >= sn {
		t.Errorf("mapped spread %v not tighter than naive %v", sm, sn)
	}
}

func TestObjectiveInvariantUnderRelabeling(t *testing.T) {
	// Objective of identity on permuted flow equals objective of the
	// permutation on original flow (consistency between Permute and
	// Assignment semantics).
	n := 8
	rng := rand.New(rand.NewSource(12))
	m := trace.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Counts[i][j] = float64(rng.Intn(10))
			}
		}
	}
	layout := waveguide.NewSerpentine(n)
	p, err := FromTraffic(m, layout)
	if err != nil {
		t.Fatal(err)
	}
	perm := Assignment{3, 1, 4, 0, 7, 2, 6, 5}
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := FromTraffic(pm, layout)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Objective(perm)
	b := p2.Objective(Identity(n))
	if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
		t.Errorf("objective mismatch: %v vs %v", a, b)
	}
}

// TestSearchFingerprints pins the searches' exact output on the paper's
// radix-64 water_spatial instance (symmetric waveguide costs) and on a
// random asymmetric one, where reading a row for a column shows. The
// assignments were recorded from the row-major implementation the
// kernel replaced; a changed delta shows up as a different move
// somewhere in the thousands of taboo iterations.
func TestSearchFingerprints(t *testing.T) {
	bench, err := workload.ByName("water_s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bench.Matrix(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	water, err := FromTraffic(m, waveguide.NewSerpentine(64))
	if err != nil {
		t.Fatal(err)
	}
	asym := randomProblem(t, 24, 11)
	for _, tc := range []struct {
		name string
		run  func() Assignment
		want Assignment
	}{
		{"water_s/taboo/seed1", func() Assignment { return water.Solve(1) },
			Assignment{21, 57, 16, 20, 58, 33, 8, 2, 0, 14, 53, 13, 52, 51, 63, 22, 40, 15, 37, 32, 43, 59, 12, 5, 6, 39, 61, 62, 19, 46, 54, 34, 36, 4, 9, 23, 31, 49, 55, 3, 50, 25, 30, 7, 28, 17, 56, 60, 29, 27, 18, 47, 44, 1, 45, 42, 35, 41, 11, 48, 26, 10, 38, 24}},
		{"water_s/taboo/seed2", func() Assignment { return water.Solve(2) },
			Assignment{21, 58, 16, 20, 57, 34, 8, 2, 0, 14, 55, 13, 52, 51, 63, 22, 33, 18, 39, 32, 43, 56, 12, 5, 6, 38, 61, 62, 19, 46, 53, 35, 36, 4, 9, 31, 28, 49, 54, 3, 50, 24, 29, 7, 27, 17, 59, 60, 30, 26, 15, 47, 42, 1, 45, 41, 40, 44, 11, 48, 25, 10, 37, 23}},
		{"water_s/taboo/seed3", func() Assignment { return water.Solve(3) },
			Assignment{21, 57, 16, 20, 56, 33, 8, 2, 0, 14, 53, 13, 52, 51, 63, 22, 40, 18, 37, 32, 43, 58, 12, 5, 6, 39, 61, 62, 19, 46, 54, 34, 36, 4, 9, 31, 29, 49, 55, 3, 50, 24, 28, 7, 27, 17, 59, 60, 30, 26, 15, 47, 42, 1, 45, 41, 35, 44, 11, 48, 25, 10, 38, 23}},
		{"water_s/anneal/seed1", func() Assignment { return water.Anneal(water.CenterGreedy(), AnnealOptions{Seed: 1}) },
			Assignment{34, 6, 26, 44, 5, 32, 8, 62, 1, 12, 52, 13, 9, 43, 61, 35, 30, 49, 37, 31, 42, 54, 14, 3, 4, 38, 60, 59, 48, 28, 53, 36, 40, 57, 7, 50, 21, 51, 55, 63, 15, 24, 20, 2, 16, 25, 56, 58, 29, 23, 10, 19, 27, 0, 18, 41, 33, 47, 11, 46, 22, 45, 39, 17}},
		{"asym/taboo/seed1", func() Assignment { return asym.Taboo(Identity(24), TabooOptions{Seed: 1, Iterations: 2000}) },
			Assignment{9, 19, 13, 18, 16, 17, 3, 22, 11, 14, 2, 4, 23, 1, 12, 5, 20, 15, 0, 6, 7, 21, 8, 10}},
		{"asym/taboo/seed2", func() Assignment { return asym.Taboo(Identity(24), TabooOptions{Seed: 2, Iterations: 2000}) },
			Assignment{22, 1, 13, 18, 11, 2, 0, 5, 23, 4, 6, 16, 14, 8, 12, 17, 19, 15, 21, 20, 7, 3, 10, 9}},
		{"asym/anneal/seed1", func() Assignment { return asym.Anneal(Identity(24), AnnealOptions{Seed: 1}) },
			Assignment{9, 15, 12, 17, 22, 8, 6, 21, 11, 10, 3, 19, 18, 4, 13, 7, 0, 14, 16, 5, 20, 1, 23, 2}},
	} {
		if got := tc.run(); !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}
