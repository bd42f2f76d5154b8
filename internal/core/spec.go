package core

import (
	"fmt"
	"strconv"

	"mnoc/internal/power"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
)

// Family is a power-topology family: the broadcast base, the paper's
// Table 5 families (N, C, G) and the conventional networks Section 4.1
// maps onto power modes by hop count.
type Family int

// The power-topology families.
const (
	Broadcast Family = iota // one broadcast mode, the base mNoC ("1M")
	Distance                // nearest groups by waveguide distance ("N", Fig. 5b)
	Clustered               // the source's 4-node cluster low ("C", Fig. 5a)
	CommAware               // modes chosen from a traffic profile ("G", Section 4.3)
	Tree                    // 4-ary tree hop count
	Hypercube               // binary n-cube hop count, log2(n) modes
	Mesh                    // near-square 2D mesh hop count
)

// familyCodes are the families' name segments.
var familyCodes = [...]string{"1M", "N", "C", "G", "tree", "cube", "mesh"}

// clusterSize is the Clustered family's cluster and the Tree family's
// arity: the 4-node clusters of the paper's rNoC baseline.
const clusterSize = 4

// Weighting is a spec's splitter-design weighting (Table 5's U/S
// column). The zero value is uniform.
type Weighting struct {
	// Sampled weights each source's modes by the profile the caller
	// passes to Topology or Network.
	Sampled bool
	// Sample names that profile in the spec's name ("S4", "S12"); ""
	// leaves the weighting out of the name.
	Sample string
}

// The weightings the paper evaluates: uniform, the 4- and 12-benchmark
// samples, and an unnamed profile of the caller's own.
var (
	Uniform  = Weighting{}
	S4       = Weighting{Sampled: true, Sample: "S4"}
	S12      = Weighting{Sampled: true, Sample: "S12"}
	Profiled = Weighting{Sampled: true}
)

// Spec names one design point in Table 5's grammar: a family, a mode
// count and a weighting. Every design the experiments, the server and
// the command-line tools build is a Spec.
type Spec struct {
	Family Family
	// Modes is the mode count; Tree and Mesh are capped at it, and
	// Hypercube ignores it.
	Modes     int
	Weighting Weighting
}

// The named design points of the kind table.
var (
	Base     = Spec{Family: Broadcast, Modes: 1}
	Dist2    = Spec{Family: Distance, Modes: 2}
	Dist4    = Spec{Family: Distance, Modes: 4}
	Cluster2 = Spec{Family: Clustered, Modes: 2}
	Comm2    = Spec{Family: CommAware, Modes: 2, Weighting: S12}
	Comm4    = Spec{Family: CommAware, Modes: 4, Weighting: S12}
)

// Name is the spec's Table 5 name, e.g. "2M_N_U" or "4M_G_S12" (a
// mapped column's T belongs to the traffic, not the design). It is the
// design's artifact-cache key and a CommAware topology's name; the
// other families keep their builders' topology names ("1M", "2M_N",
// "2M_cluster4"), which encoded networks carry.
func (s Spec) Name() string {
	code := familyCodes[s.Family]
	if s.Family == Broadcast {
		return code
	}
	sep, label := "_", "U"
	if s.Weighting.Sampled {
		if label = s.Weighting.Sample; label == "" {
			sep = ""
		}
	}
	if s.Family == Hypercube {
		return code + sep + label
	}
	return strconv.Itoa(s.Modes) + "M_" + code + sep + label
}

// OnProfile is the spec designed from the caller's own profile instead
// of the sample its weighting names, as the command-line tools design
// the named kinds: a sampled weighting becomes Profiled.
func (s Spec) OnProfile() Spec {
	if s.Weighting.Sampled {
		s.Weighting = Profiled
	}
	return s
}

// distancePartition is the Distance family's one partition rule: n−1
// destinations in `modes` nearest groups of n/modes, the remainder in
// the last group.
func distancePartition(n, modes int) []int {
	groups := make([]int, modes)
	for i := range groups {
		groups[i] = n / modes
	}
	groups[modes-1] = n - 1 - (modes-1)*(n/modes)
	return groups
}

// Topology builds the spec's power topology at cfg's radix. profile
// is the traffic a CommAware spec partitions by; the other families
// ignore it.
func (s Spec) Topology(cfg power.Config, profile *trace.Matrix) (*topo.Topology, error) {
	n := cfg.N
	switch {
	case s.Family == Broadcast && s.Modes == 1:
		return topo.SingleMode(n), nil
	case s.Family == Distance && s.Modes >= 1 && s.Modes < n:
		return topo.DistanceBased(n, distancePartition(n, s.Modes))
	case s.Family == Clustered && s.Modes == 2:
		return topo.Clustered(n, clusterSize)
	case s.Family == CommAware && profile == nil:
		return nil, fmt.Errorf("core: %s needs a traffic profile", s.Name())
	case s.Family == CommAware && s.Modes == 2:
		return topo.CommAware2Mode(profile, cfg.Splitter, s.Name())
	case s.Family == CommAware && s.Modes == 4:
		return topo.BestScoredPartition(profile, cfg.Splitter, topo.CandidatePartitions4(n), s.Name())
	case s.Family == Tree:
		return topo.Tree(n, clusterSize, s.Modes)
	case s.Family == Hypercube:
		return topo.Hypercube(n)
	case s.Family == Mesh:
		// The near-square rows × cols factorisation of n.
		r := 1
		for r*r < n {
			r *= 2
		}
		for n%r != 0 {
			r /= 2
		}
		return topo.Mesh2D(r, n/r, s.Modes)
	}
	return nil, fmt.Errorf("core: no %d-mode design in topology family %d", s.Modes, s.Family)
}

// Network builds the spec's topology and sizes its splitters under the
// spec's weighting: uniform over the topology's modes, or sampled from
// profile.
func (s Spec) Network(cfg power.Config, profile *trace.Matrix) (*power.MNoC, error) {
	t, err := s.Topology(cfg, profile)
	if err != nil {
		return nil, err
	}
	w := power.UniformWeighting(t.Modes)
	if s.Weighting.Sampled {
		if profile == nil {
			return nil, fmt.Errorf("core: %s needs a traffic profile", s.Name())
		}
		w = power.SampledWeighting(profile)
	}
	return power.NewMNoC(cfg, t, w)
}

// The design kinds `mnoc serve`, `mnoc power`, `mnoc topo` and `mnoc
// compare` accept.
const (
	KindBase     = "base"     // Base, "1M"
	KindCluster2 = "cluster2" // Cluster2, "2M_C_U"
	KindComm2    = "comm2"    // Comm2, "2M_G_S12"
	KindComm4    = "comm4"    // Comm4, "4M_G_S12": the paper's best design
	KindDist2    = "dist2"    // Dist2, "2M_N_U"
	KindDist4    = "dist4"    // Dist4, "4M_N_U"
)

// kinds is the kind table, sorted by kind.
var kinds = [...]struct {
	kind string
	spec Spec
}{
	{KindBase, Base}, {KindCluster2, Cluster2}, {KindComm2, Comm2},
	{KindComm4, Comm4}, {KindDist2, Dist2}, {KindDist4, Dist4},
}

// Kinds lists the design kinds, sorted.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.kind
	}
	return out
}

// KindSpec looks a design kind up in the kind table. A hit neither
// formats nor allocates: the server calls it on every request.
func KindSpec(kind string) (Spec, error) {
	for _, k := range kinds {
		if k.kind == kind {
			return k.spec, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown design kind %q (want one of %v)", kind, Kinds())
}
