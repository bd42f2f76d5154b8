package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mnoc/internal/power"
)

// The distance partitions the experiments, the adaptation loop, the
// fault sweep and the command-line tools each wrote out before the
// registry's one rule replaced them.
func oldHalves(n int) []int { return []int{n / 2, n - 1 - n/2} }

func oldQuarters(n int) []int {
	q := n / 4
	return []int{q, q, q, n - 1 - 3*q}
}

func oldEvenPartition(n, modes int) []int {
	groups := make([]int, modes)
	base := (n - 1) / modes
	rem := (n - 1) % modes
	for i := range groups {
		groups[i] = base
		if i < rem {
			groups[i]++
		}
	}
	return groups
}

func TestDistancePartitionMatchesOldRules(t *testing.T) {
	for n := 8; n <= 512; n++ {
		if got, want := distancePartition(n, 2), oldHalves(n); !slices.Equal(got, want) {
			t.Fatalf("n=%d 2 modes: %v, halves %v", n, got, want)
		}
		if got, want := distancePartition(n, 4), oldQuarters(n); !slices.Equal(got, want) {
			t.Fatalf("n=%d 4 modes: %v, quarters %v", n, got, want)
		}
		for _, modes := range []int{2, 4, 8} {
			if n%modes != 0 {
				continue
			}
			if got, want := distancePartition(n, modes), oldEvenPartition(n, modes); !slices.Equal(got, want) {
				t.Fatalf("n=%d %d modes: %v, even partition %v", n, modes, got, want)
			}
		}
	}
}

func TestSpecNames(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Base, "1M"},
		{Dist2, "2M_N_U"},
		{Dist4, "4M_N_U"},
		{Cluster2, "2M_C_U"},
		{Comm2, "2M_G_S12"},
		{Comm4, "4M_G_S12"},
		{Spec{Family: Distance, Modes: 2, Weighting: S4}, "2M_N_S4"},
		{Spec{Family: CommAware, Modes: 4, Weighting: S4}, "4M_G_S4"},
		{Comm2.OnProfile(), "2M_G"},
		{Dist2.OnProfile(), "2M_N_U"},
		{Spec{Family: Tree, Modes: 4}, "4M_tree_U"},
		{Spec{Family: Hypercube}, "cube_U"},
	} {
		if got := c.spec.Name(); got != c.want {
			t.Errorf("%+v: name %q, want %q", c.spec, got, c.want)
		}
	}
}

// TestTopologyNames pins the topology names encoded networks carry:
// the builders' own names, and the spec name for CommAware.
func TestTopologyNames(t *testing.T) {
	s, err := NewSystem(16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Profile("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Base, "1M"},
		{Dist2, "2M_N"},
		{Dist4, "4M_N"},
		{Cluster2, "2M_cluster4"},
		{Comm2, "2M_G_S12"},
		{Comm4.OnProfile(), "4M_G"},
	} {
		tp, err := c.spec.Topology(s.Cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Name != c.want {
			t.Errorf("%s: topology %q, want %q", c.spec.Name(), tp.Name, c.want)
		}
	}
}

func TestSpecRejections(t *testing.T) {
	cfg := power.DefaultConfig(16)
	for _, spec := range []Spec{
		{Family: Broadcast, Modes: 2},
		{Family: Distance, Modes: 0},
		{Family: Distance, Modes: 16},
		{Family: Clustered, Modes: 4},
		{Family: CommAware, Modes: 3, Weighting: Profiled},
		{Family: Mesh, Modes: 0},
		{Family: Mesh + 1, Modes: 2},
	} {
		if _, err := spec.Topology(cfg, nil); err == nil {
			t.Errorf("%+v accepted", spec)
		}
	}
	if _, err := Comm2.Topology(cfg, nil); err == nil {
		t.Error("comm-aware topology without a profile accepted")
	}
	if _, err := (Spec{Family: Distance, Modes: 2, Weighting: Profiled}).Network(cfg, nil); err == nil {
		t.Error("sampled weighting without a profile accepted")
	}
}

func TestKindTable(t *testing.T) {
	kinds := Kinds()
	if want := []string{"base", "cluster2", "comm2", "comm4", "dist2", "dist4"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("Kinds() = %v, want %v", kinds, want)
	}
	want := map[string]Spec{
		KindBase: Base, KindCluster2: Cluster2, KindComm2: Comm2,
		KindComm4: Comm4, KindDist2: Dist2, KindDist4: Dist4,
	}
	for _, k := range kinds {
		spec, err := KindSpec(k)
		if err != nil {
			t.Fatal(err)
		}
		if spec != want[k] {
			t.Errorf("%s: spec %+v, want %+v", k, spec, want[k])
		}
	}
	for _, bad := range []string{"broadcast", "cluster", "", "COMM4"} {
		_, err := KindSpec(bad)
		if err == nil {
			t.Fatalf("kind %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "[base cluster2 comm2 comm4 dist2 dist4]") {
			t.Errorf("error for %q does not list the kinds: %v", bad, err)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = KindSpec(KindDist4) }); a != 0 {
		t.Errorf("KindSpec allocates %v times per hit", a)
	}
}

func TestSpecNameAllocatesOnce(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { _ = Comm4.Name() }); a > 1 {
		t.Errorf("Name allocates %v times", a)
	}
}
