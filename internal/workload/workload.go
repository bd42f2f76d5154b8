// Package workload provides deterministic synthetic stand-ins for the 12
// SPLASH-2 benchmarks the paper evaluates (Table 4, Figures 8-10).
//
// The real study extracts communication traces from Graphite runs of
// SPLASH-2 on 256 cores; those binaries and traces are not available, so
// each benchmark here is modelled by its published communication
// *structure* (the SPLASH-2 characterisation of Woo et al. and the
// communication study of Barrow-Williams et al., both cited by the
// paper) plus a network-intensity target taken from the paper's own
// Table 4 ("Base mNoC Power Consumption"). The structure drives every
// relative result (power topologies, thread mapping); the intensity only
// anchors the absolute wattage. See DESIGN.md §4 for the substitution
// argument.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"mnoc/internal/trace"
)

// Benchmark describes one synthetic SPLASH-2 stand-in.
type Benchmark struct {
	// Name is the paper's benchmark label (e.g. "ocean_nc").
	Name string
	// PaperBaseWatts is the paper's Table 4 base-mNoC power for this
	// benchmark; the power model calibrates each benchmark's injection
	// rate so the single-mode naive-mapping design reproduces it.
	PaperBaseWatts float64
	// Description summarises the modelled communication structure.
	Description string

	pattern func(n int, rng *rand.Rand) *trace.Matrix
	// scatter controls how strongly the logical communication structure
	// is shuffled across thread IDs (0 = neighbours keep adjacent IDs,
	// 1 = fully scattered). Real SPLASH runs measured by the paper are
	// heavily scattered: the average thread-ID communication distance
	// is 102 of a possible 255 — farther than uniform random — because
	// logical neighbours get arbitrary thread IDs (Observation 3).
	scatter float64
	// skewSigma is the per-thread activity skew (log-normal σ): some
	// threads communicate far more than others (Observation 3 /
	// Barrow-Williams et al.), which is what thread mapping exploits.
	skewSigma float64
	// bgUniform is the fraction of traffic that is uniform background:
	// with a MOSI directory protocol, miss/home-node traffic is
	// address-interleaved across all nodes regardless of the sharing
	// structure, so every benchmark carries a flat component under its
	// structured pattern.
	bgUniform float64
}

// All returns the 12 benchmarks in the paper's Table 4 order.
func All() []Benchmark {
	return []Benchmark{
		{"barnes", 7.05, "Barnes-Hut N-body: octree parent/child exchange plus local neighbour updates", barnesPattern, 1.0, 1.1, 0.40},
		{"radix", 120.34, "radix sort: key permutation, heavy all-to-all", radixPattern, 1.0, 0.4, 0.0},
		{"ocean_c", 12.31, "ocean (contiguous): 2D grid stencil, nearest-neighbour halo exchange", oceanContigPattern, 0.8, 0.8, 0.40},
		{"ocean_nc", 24.23, "ocean (non-contiguous): 2D stencil with strided partitions and global reductions", oceanNonContigPattern, 1.0, 0.8, 0.35},
		{"raytrace", 3.99, "raytrace: task stealing with a scene hotspot", raytracePattern, 1.0, 1.2, 0.40},
		{"fft", 11.41, "FFT: all-to-all matrix transpose between sqrt(P) groups", fftPattern, 1.0, 0.7, 0.35},
		{"water_s", 5.28, "water-spatial: 3D spatial decomposition, 6/26-neighbourhood exchange", waterSpatialPattern, 1.0, 1.0, 0.40},
		{"water_ns", 6.08, "water-nsquared: each process exchanges with half the ring", waterNSquaredPattern, 1.0, 0.7, 0.30},
		{"cholesky", 5.14, "cholesky: sparse supernodal factorisation, power-law partner skew", choleskyPattern, 1.0, 1.2, 0.45},
		{"lu_cb", 7.79, "LU (contiguous blocks): 2D block pivot row/column broadcast", luContigPattern, 0.8, 0.9, 0.40},
		{"lu_ncb", 43.70, "LU (non-contiguous): same structure at much higher volume with wider spread", luNonContigPattern, 1.0, 0.9, 0.35},
		{"volrend", 3.99, "volrend: mostly-local ray casting with a master task queue", volrendPattern, 0.7, 1.2, 0.45},
	}
}

// SampleS4 is the paper's 4-benchmark sampling set for the S4 designs
// (Section 5.4: "sampling from four benchmarks (lu_cb, radix, raytrace,
// water_s)").
var SampleS4 = []string{"lu_cb", "radix", "raytrace", "water_s"}

// Names returns the benchmark names in Table 4 order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return names
}

// ByName finds a benchmark by its paper label.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}

// Resolve finds either a SPLASH stand-in by name or a synthetic kernel
// by its "syn_" prefixed name ("syn_uniform", "syn_tornado", ...).
func Resolve(name string) (Benchmark, error) {
	if b, err := ByName(name); err == nil {
		return b, nil
	}
	const prefix = "syn_"
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		return Synthetic(name[len(prefix):])
	}
	return Benchmark{}, fmt.Errorf("workload: unknown workload %q (have %v and syn_{%v})",
		name, Names(), SyntheticNames())
}

// Matrix returns the benchmark's normalised n×n traffic-shape matrix
// (Total() == 1). Deterministic for a given (n, seed).
//
// Construction: the logical pattern is built first, then thread IDs are
// (partially) scattered — mirroring that SPLASH thread numbering bears
// little relation to logical adjacency — and finally per-thread activity
// skew is applied so some threads communicate much more than others.
func (b Benchmark) Matrix(n int, seed int64) (*trace.Matrix, error) {
	rng := rand.New(rand.NewSource(seed))
	m := b.pattern(n, rng)
	clearDiagonal(m)
	bseed := seed ^ int64(nameHash(b.Name))
	m, err := scatterIDs(m, b.scatter, rand.New(rand.NewSource(bseed)))
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", b.Name, err)
	}
	m = blendUniform(m, b.bgUniform)
	applySkew(m, b.skewSigma, rand.New(rand.NewSource(bseed+1)))
	return m.Normalized(), nil
}

// nameHash is a small FNV-1a so each benchmark scatters differently for
// the same caller seed.
func nameHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// scatterIDs relabels a fraction of the threads with random IDs,
// destroying that much of the pattern's thread-ID locality while
// preserving its logical structure exactly (the matrix is permuted, not
// resampled).
func scatterIDs(m *trace.Matrix, fraction float64, rng *rand.Rand) (*trace.Matrix, error) {
	if fraction <= 0 {
		return m, nil
	}
	n := m.N
	idx := rng.Perm(n)
	k := int(fraction * float64(n))
	if k < 2 {
		return m, nil
	}
	chosen := append([]int(nil), idx[:k]...)
	sort.Ints(chosen)
	shuffled := append([]int(nil), chosen...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i, c := range chosen {
		perm[c] = shuffled[i]
	}
	// perm is a permutation by construction; Permute only fails if that
	// invariant is broken, which callers surface instead of panicking.
	out, err := m.Permute(perm)
	if err != nil {
		return nil, fmt.Errorf("scattering thread IDs: %w", err)
	}
	return out, nil
}

// blendUniform mixes the (normalised) structured pattern with a flat
// all-to-all component: out = (1−frac)·structured + frac·uniform. The
// result carries the directory-protocol background described on the
// bgUniform field.
func blendUniform(m *trace.Matrix, frac float64) *trace.Matrix {
	if frac <= 0 {
		return m
	}
	out := m.Normalized()
	out.Scale(1 - frac)
	n := out.N
	per := frac / float64(n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				out.Counts[s][d] += per
			}
		}
	}
	return out
}

// applySkew multiplies entry (s,d) by act(s)·act(d), with log-normal
// per-thread activities of the given σ. σ = 0 leaves the matrix alone.
func applySkew(m *trace.Matrix, sigma float64, rng *rand.Rand) {
	if sigma <= 0 {
		return
	}
	act := make([]float64, m.N)
	for i := range act {
		act[i] = math.Exp(sigma * rng.NormFloat64())
	}
	for s := range m.Counts {
		for d := range m.Counts[s] {
			m.Counts[s][d] *= act[s] * act[d]
		}
	}
}

// Trace samples a packet trace of the benchmark's shape: totalFlits
// single-flit packets drawn from the traffic matrix, with injection
// cycles uniform over the duration. Deterministic for a given seed.
func (b Benchmark) Trace(n int, cycles uint64, totalFlits int, seed int64) (*trace.Trace, error) {
	if totalFlits <= 0 {
		return nil, fmt.Errorf("workload: totalFlits = %d", totalFlits)
	}
	if cycles == 0 {
		return nil, fmt.Errorf("workload: zero duration")
	}
	m, err := b.Matrix(n, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	pairs, cum := flatten(m)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("workload: %s has an empty traffic matrix", b.Name)
	}
	tr := &trace.Trace{N: n, Cycles: cycles, Packets: make([]trace.Packet, totalFlits)}
	for i := range tr.Packets {
		p := pairs[sample(cum, rng.Float64())]
		tr.Packets[i] = trace.Packet{
			Cycle: uint64(rng.Int63n(int64(cycles))),
			Src:   int32(p.s), Dst: int32(p.d), Flits: 1,
		}
	}
	sortByCycle(tr.Packets)
	return tr, nil
}

// sortByCycle orders packets by injection cycle. pdqsort is not
// stable, so the order of equal-cycle packets is part of every trace:
// it must stay the pdqsort that sort.Slice and slices.SortFunc share,
// and SortFunc needs no reflection-based swapper.
func sortByCycle(ps []trace.Packet) {
	slices.SortFunc(ps, func(a, b trace.Packet) int { return cmp.Compare(a.Cycle, b.Cycle) })
}

// Phase describes one segment of a phased workload.
type Phase struct {
	// Bench is the benchmark whose communication shape this phase has.
	Bench string
	// Cycles is the phase duration.
	Cycles uint64
	// Flits is the number of flits injected during the phase.
	Flits int
}

// PhasedTrace concatenates several benchmark phases into one trace —
// the workload shape that motivates dynamic power topologies and online
// thread migration (paper Sections 4.4 and 7): the communication
// pattern changes mid-run, so a mapping chosen for the first phase is
// stale for the later ones.
func PhasedTrace(n int, phases []Phase, seed int64) (*trace.Trace, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: no phases")
	}
	total := 0
	for _, ph := range phases {
		total += max(ph.Flits, 0)
	}
	out := &trace.Trace{N: n, Packets: make([]trace.Packet, 0, total)}
	var offset uint64
	for i, ph := range phases {
		b, err := ByName(ph.Bench)
		if err != nil {
			return nil, fmt.Errorf("workload: phase %d: %w", i, err)
		}
		tr, err := b.Trace(n, ph.Cycles, ph.Flits, seed+int64(i)*101)
		if err != nil {
			return nil, fmt.Errorf("workload: phase %d: %w", i, err)
		}
		for _, p := range tr.Packets {
			p.Cycle += offset
			out.Packets = append(out.Packets, p)
		}
		offset += ph.Cycles
	}
	out.Cycles = offset
	return out, out.Validate()
}

type pair struct{ s, d int }

// flatten lists the nonzero matrix entries with a cumulative
// distribution for sampling.
func flatten(m *trace.Matrix) ([]pair, []float64) {
	var pairs []pair
	var cum []float64
	run := 0.0
	for s, row := range m.Counts {
		for d, v := range row {
			if v <= 0 || s == d {
				continue
			}
			run += v
			pairs = append(pairs, pair{s, d})
			cum = append(cum, run)
		}
	}
	// Normalise the cumulative to [0,1].
	for i := range cum {
		cum[i] /= run
	}
	return pairs, cum
}

func sample(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func clearDiagonal(m *trace.Matrix) {
	for i := 0; i < m.N; i++ {
		m.Counts[i][i] = 0
	}
}

// grid returns the most-square rows×cols factorisation of n for 2D
// decompositions.
func grid(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	for rows > 1 && n%rows != 0 {
		rows--
	}
	return rows, n / rows
}

// --- Pattern builders -------------------------------------------------

// barnesPattern: octree traversal. Threads own subtrees of an 8-ary
// tree; most traffic is parent↔child, plus light gravity interactions
// with random distant bodies.
func barnesPattern(n int, rng *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	for c := 1; c < n; c++ {
		p := (c - 1) / 8
		m.Counts[c][p] += 10
		m.Counts[p][c] += 6
	}
	// Long-range force interactions: light, randomly scattered.
	for s := 0; s < n; s++ {
		for k := 0; k < 8; k++ {
			d := rng.Intn(n)
			if d == s {
				continue
			}
			m.Counts[s][d] += 1
		}
	}
	return m
}

// radixPattern: permutation phase — essentially uniform all-to-all with
// a slight bucket skew.
func radixPattern(n int, rng *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			m.Counts[s][d] = 1 + 0.2*rng.Float64()
		}
	}
	return m
}

// oceanContigPattern: 2D stencil halo exchange on a rows×cols core grid,
// contiguous partitions — neighbours are close in thread-ID space.
func oceanContigPattern(n int, _ *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	rows, cols := grid(n)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			s := idx(r, c)
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= rows || nb[1] < 0 || nb[1] >= cols {
					continue
				}
				m.Counts[s][idx(nb[0], nb[1])] += 10
			}
			if s != 0 { // global reduction every few iterations
				m.Counts[s][0] += 0.5
				m.Counts[0][s] += 0.5
			}
		}
	}
	return m
}

// oceanNonContigPattern: same stencil but with a strided (bit-reversed)
// partition assignment, so grid neighbours are far apart in thread-ID
// space, plus heavier global phases — the paper's ocean_nc has ~2× the
// traffic of ocean_c.
func oceanNonContigPattern(n int, _ *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	rows, cols := grid(n)
	perm := stride(n, 17)
	idx := func(r, c int) int { return perm[r*cols+c] }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			s := idx(r, c)
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= rows || nb[1] < 0 || nb[1] >= cols {
					continue
				}
				m.Counts[s][idx(nb[0], nb[1])] += 20
			}
			if s != perm[0] {
				m.Counts[s][perm[0]] += 2
				m.Counts[perm[0]][s] += 2
			}
		}
	}
	return m
}

// stride builds the permutation i ↦ (i*step mod n), with step coprime to
// n, used to scatter logically-adjacent partitions across thread IDs.
func stride(n, step int) []int {
	for gcd(step, n) != 1 {
		step++
	}
	p := make([]int, n)
	for i := range p {
		p[i] = (i * step) % n
	}
	return p
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// raytracePattern: a work-queue master hotspot plus random task stealing
// with mild locality.
func raytracePattern(n int, rng *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	for s := 1; s < n; s++ {
		m.Counts[s][0] += 4 // task requests to master
		m.Counts[0][s] += 4 // task grants
	}
	for s := 0; s < n; s++ {
		for k := 0; k < 4; k++ { // steals from random victims, biased near
			off := 1 + rng.Intn(n/4)
			d := (s + off) % n
			if d == s {
				continue
			}
			m.Counts[s][d] += 2
		}
	}
	return m
}

// fftPattern: the SPLASH FFT transposes a sqrt(P)×sqrt(P) matrix of
// partitions — every thread exchanges with the threads of its transposed
// group: i = g*q + r communicates with r*q + g.
func fftPattern(n int, _ *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	q, _ := grid(n)
	// Transpose partner exchange (all-to-all between groups).
	for s := 0; s < n; s++ {
		g, r := s/q, s%q
		d := r*(n/q) + g
		if d < n && d != s {
			m.Counts[s][d] += 20
			m.Counts[d][s] += 20
		}
	}
	// Butterfly stages add power-of-two partners.
	for s := 0; s < n; s++ {
		for bit := 1; bit < n; bit <<= 1 {
			d := s ^ bit
			if d < n && d != s {
				m.Counts[s][d] += 2
			}
		}
	}
	return m
}

// waterSpatialPattern: 3D spatial cells; heavy 6-neighbour and light
// 26-neighbour exchange. Cores form an x×y×z box.
func waterSpatialPattern(n int, _ *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	x, y, z := box(n)
	idx := func(i, j, k int) int { return (i*y+j)*z + k }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				s := idx(i, j, k)
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							ni, nj, nk := i+di, j+dj, k+dk
							if ni < 0 || ni >= x || nj < 0 || nj >= y || nk < 0 || nk >= z {
								continue
							}
							w := 1.0
							if abs(di)+abs(dj)+abs(dk) == 1 {
								w = 8 // face neighbours dominate
							}
							m.Counts[s][idx(ni, nj, nk)] += w
						}
					}
				}
			}
		}
	}
	return m
}

// box factors n into the most-cubic x×y×z.
func box(n int) (x, y, z int) {
	x = int(math.Cbrt(float64(n)))
	for x > 1 && n%x != 0 {
		x--
	}
	y, z = grid(n / x)
	return x, y, z
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// waterNSquaredPattern: the O(N²) algorithm — each process computes
// forces against the next n/2 processes around the ring.
func waterNSquaredPattern(n int, _ *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		for k := 1; k <= n/2; k++ {
			d := (s + k) % n
			// Nearer ring partners exchange more often (cutoff radius).
			m.Counts[s][d] += 1 + 4/float64(k)
		}
	}
	return m
}

// choleskyPattern: supernodal sparse factorisation — a few heavy
// producer→consumer edges with power-law skew.
func choleskyPattern(n int, rng *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		partners := 3 + rng.Intn(5)
		for k := 0; k < partners; k++ {
			// Power-law distance: mostly near, occasionally far.
			span := int(math.Pow(float64(n), rng.Float64()))
			d := (s + span) % n
			if d == s {
				continue
			}
			m.Counts[s][d] += 5 / float64(k+1)
		}
	}
	return m
}

// luContigPattern: 2D block LU — the pivot block's owner broadcasts to
// its row and column of the core grid.
func luContigPattern(n int, _ *rand.Rand) *trace.Matrix {
	return luPattern(n, 1, nil)
}

// luNonContigPattern: the non-contiguous allocation spreads each
// logical block across strided thread IDs, producing the same row/column
// structure but at much higher volume and over scattered IDs.
func luNonContigPattern(n int, _ *rand.Rand) *trace.Matrix {
	return luPattern(n, 5, stride(n, 29))
}

func luPattern(n int, scale float64, perm []int) *trace.Matrix {
	m := trace.NewMatrix(n)
	rows, cols := grid(n)
	id := func(i int) int {
		if perm == nil {
			return i
		}
		return perm[i]
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			s := id(r*cols + c)
			for cc := 0; cc < cols; cc++ { // pivot row broadcast
				if cc == c {
					continue
				}
				m.Counts[s][id(r*cols+cc)] += scale
			}
			for rr := 0; rr < rows; rr++ { // pivot column broadcast
				if rr == r {
					continue
				}
				m.Counts[s][id(rr*cols+c)] += scale
			}
		}
	}
	return m
}

// volrendPattern: image-space ray casting — strong locality between
// adjacent scanline owners plus a master octree hotspot.
func volrendPattern(n int, rng *rand.Rand) *trace.Matrix {
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		for _, off := range []int{-2, -1, 1, 2} {
			d := s + off
			if d < 0 || d >= n {
				continue
			}
			m.Counts[s][d] += 6
		}
		if s != 0 {
			m.Counts[s][0] += 1.5
			m.Counts[0][s] += 1
		}
		if rng.Float64() < 0.3 { // occasional remote brick fetch
			d := rng.Intn(n)
			if d != s {
				m.Counts[s][d] += 1
			}
		}
	}
	return m
}
