package core

import (
	"math"
	"testing"

	"mnoc/internal/mapping"
)

func TestNewSystem(t *testing.T) {
	s, err := NewSystem(64)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 64 {
		t.Errorf("N = %d", s.N())
	}
	if _, err := NewSystem(1); err == nil {
		t.Error("1-node system accepted")
	}
}

func TestProfileCalibratesToTable4(t *testing.T) {
	s, err := NewSystem(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Profile("barnes", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Design(Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Power(m, ProfileCycles)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.TotalWatts()-7.05) > 1e-6 {
		t.Errorf("barnes base power = %v W, want 7.05 (Table 4)", b.TotalWatts())
	}
	if _, err := s.Profile("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestDesignLadder(t *testing.T) {
	// The paper's headline ordering: broadcast > distance-based >
	// distance+QAP > comm-aware+QAP, on a single benchmark.
	s, err := NewSystem(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Profile("water_s", 1)
	if err != nil {
		t.Fatal(err)
	}
	powerOf := func(d *Design) float64 {
		b, err := d.Power(m, ProfileCycles)
		if err != nil {
			t.Fatal(err)
		}
		return b.TotalWatts()
	}

	base, err := s.Design(Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := s.Design(Dist2, nil)
	if err != nil {
		t.Fatal(err)
	}
	distT, err := dist.WithQAPMapping(m, QAPOptions{Seed: 1, Iterations: 600})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := distT.MappedTraffic(m)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := s.Design(Comm2.OnProfile(), mapped)
	if err != nil {
		t.Fatal(err)
	}
	caT, err := ca.WithMapping(distT.Mapping)
	if err != nil {
		t.Fatal(err)
	}

	pBase, pDist, pDistT, pCaT := powerOf(base), powerOf(dist), powerOf(distT), powerOf(caT)
	if !(pDist < pBase) {
		t.Errorf("distance %v not below base %v", pDist, pBase)
	}
	if !(pDistT < pDist) {
		t.Errorf("distance+QAP %v not below distance %v", pDistT, pDist)
	}
	if !(pCaT < pDistT) {
		t.Errorf("comm-aware+QAP %v not below distance+QAP %v", pCaT, pDistT)
	}
}

func TestClusteredDesign(t *testing.T) {
	s, err := NewSystem(64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Design(Cluster2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Topology.Modes != 2 {
		t.Errorf("modes = %d", d.Topology.Modes)
	}
	if _, err := s.Design(Spec{Family: Clustered, Modes: 3}, nil); err == nil {
		t.Error("3-mode clustered design accepted")
	}
	odd, err := NewSystem(18)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := odd.Design(Cluster2, nil); err == nil {
		t.Error("clusters of 4 accepted on 18 nodes")
	}
}

func TestCommAwareDesignRejectsOtherModeCounts(t *testing.T) {
	s, err := NewSystem(32)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Profile("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Design(Spec{Family: CommAware, Modes: 3, Weighting: Profiled}, m); err == nil {
		t.Error("3-mode comm-aware accepted")
	}
	if _, err := s.Design(Comm4.OnProfile(), nil); err == nil {
		t.Error("comm-aware design without a profile accepted")
	}
	if _, err := s.Design(Comm4.OnProfile(), m); err != nil {
		t.Errorf("4-mode failed: %v", err)
	}
}

func TestWithMappingValidates(t *testing.T) {
	s, err := NewSystem(16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Design(Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WithMapping(mapping.Assignment{0, 0, 1}); err == nil {
		t.Error("invalid mapping accepted")
	}
	good := mapping.Identity(16)
	if _, err := d.WithMapping(good); err != nil {
		t.Error(err)
	}
}

func TestBenchmarksList(t *testing.T) {
	if got := Benchmarks(); len(got) != 12 || got[0] != "barnes" {
		t.Errorf("Benchmarks() = %v", got)
	}
}

func TestDriveTableExport(t *testing.T) {
	s, err := NewSystem(16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Profile("fft", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Design(Comm2.OnProfile(), m)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.DriveTable()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := tbl.Lookup(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.DriveUW <= 0 {
		t.Errorf("route drive %v", r.DriveUW)
	}
}
