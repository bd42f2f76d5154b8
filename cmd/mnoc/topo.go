package main

import (
	"flag"
	"fmt"
	"os"

	"mnoc/internal/core"
	"mnoc/internal/drivetable"
	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/runner"
)

// topoCmd designs a power topology for a workload and prints its
// adjacency-matrix view (the style of the paper's Figure 5) plus the
// per-source mode power summary.
func topoCmd(args []string) {
	fs := flag.NewFlagSet("mnoc topo", flag.ExitOnError)
	var (
		n        = fs.Int("n", 64, "crossbar radix")
		bench    = fs.String("bench", "water_s", "workload to profile (one of: "+fmt.Sprint(core.Benchmarks())+")")
		kind     = fs.String("kind", core.KindComm2, kindUsage)
		qap      = fs.Bool("qap", false, "apply QAP thread mapping before profiling-driven design")
		render   = fs.Int("render", 16, "how many nodes of the adjacency matrix to print (0 = none)")
		seed     = fs.Int64("seed", 1, "random seed")
		export   = fs.String("export", "", "write the drive/fabrication table (splitter ratios, mode powers, thread maps) to this file")
		cacheDir = fs.String("cache-dir", "", "persistent artifact cache directory (reuses QAP solves across runs)")
	)
	fs.Parse(args)
	spec, err := core.KindSpec(*kind)
	if err != nil {
		fail("topo", err)
	}

	store, err := runner.NewStore(*cacheDir)
	if err != nil {
		fail("topo", err)
	}
	sys, err := core.NewSystem(*n)
	if err != nil {
		fail("topo", err)
	}
	profile, err := sys.Profile(*bench, *seed)
	if err != nil {
		fail("topo", err)
	}

	// Optionally map threads first so the design sees core-indexed
	// traffic the way the paper's T variants do.
	design, err := sys.Design(core.Base, nil)
	if err != nil {
		fail("topo", err)
	}
	if *qap {
		asg, err := runner.CachedQAP(store, profile, *seed, 0, func() (mapping.Assignment, error) {
			d, err := design.WithQAPMapping(profile, core.QAPOptions{Seed: *seed})
			if err != nil {
				return nil, err
			}
			return d.Mapping, nil
		})
		if err != nil {
			fail("topo", err)
		}
		if design, err = design.WithMapping(asg); err != nil {
			fail("topo", err)
		}
		if profile, err = design.MappedTraffic(profile); err != nil {
			fail("topo", err)
		}
	}

	// The kind's design is built from the (optionally mapped) profile.
	if design, err = sys.Design(spec.OnProfile(), profile); err != nil {
		fail("topo", err)
	}

	bd, err := design.Network.Evaluate(profile, core.ProfileCycles)
	if err != nil {
		fail("topo", err)
	}
	fmt.Printf("design %s on %s (n=%d, qap=%v)\n", design.Topology.Name, *bench, *n, *qap)
	fmt.Printf("modes: %d  total power: %s (source %s, O/E %s, electrical %s)\n",
		design.Topology.Modes,
		phys.FormatPower(bd.TotalUW()), phys.FormatPower(bd.SourceUW),
		phys.FormatPower(bd.OEUW), phys.FormatPower(bd.ElectricalUW))

	src := *n / 2
	d := design.Network.Designs[src]
	fmt.Printf("source %d mode powers (QD LED optical): ", src)
	for m, p := range d.ModePowerUW {
		fmt.Printf("mode%d=%s ", m+1, phys.FormatPower(p))
	}
	fmt.Println()

	if *render > 0 {
		hi := *render
		if hi > *n {
			hi = *n
		}
		fmt.Printf("\nadjacency matrix (nodes 0..%d):\n", hi-1)
		if err := design.Topology.Render(os.Stdout, 0, hi); err != nil {
			fail("topo", err)
		}
	}

	if *export != "" {
		tbl, err := drivetable.Build(design.Network, design.Mapping)
		if err != nil {
			fail("topo", err)
		}
		f, err := os.Create(*export)
		if err != nil {
			fail("topo", err)
		}
		if err := tbl.Write(f); err != nil {
			fail("topo", err)
		}
		if err := f.Close(); err != nil {
			fail("topo", err)
		}
		fmt.Printf("drive table written: %s (%d nodes, %d modes)\n", *export, tbl.N, tbl.Modes)
	}
}
