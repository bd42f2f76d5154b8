package main

import (
	"flag"
	"fmt"
	"os"

	"mnoc/internal/core"
	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/runner"
	"mnoc/internal/trace"
)

// powerCmd evaluates the power of a packet trace (from `mnoc trace` or
// `mnoc sim`) under a chosen power topology and thread mapping, and
// compares against the rNoC and clustered baselines.
func powerCmd(args []string) {
	fs := flag.NewFlagSet("mnoc power", flag.ExitOnError)
	var (
		in       = fs.String("i", "", "input trace file (this or -matrix is required)")
		matrix   = fs.String("matrix", "", "input CSV traffic matrix (flits; alternative to -i)")
		cyc      = fs.Float64("cycles", 1e6, "evaluation window in cycles when using -matrix")
		kind     = fs.String("kind", core.KindComm4, kindUsage)
		qap      = fs.Bool("qap", true, "apply QAP thread mapping")
		seed     = fs.Int64("seed", 1, "random seed for the QAP search")
		cacheDir = fs.String("cache-dir", "", "persistent artifact cache directory (reuses QAP solves across runs)")
	)
	fs.Parse(args)
	spec, err := core.KindSpec(*kind)
	if err != nil {
		fail("power", err)
	}

	var profile *trace.Matrix
	var cycles float64
	var source string
	switch {
	case *in != "" && *matrix != "":
		fail("power", fmt.Errorf("-i and -matrix are mutually exclusive"))
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fail("power", err)
		}
		tr, err := trace.Read(f)
		if err != nil {
			fail("power", err)
		}
		if err := f.Close(); err != nil {
			fail("power", err)
		}
		profile = tr.Matrix()
		cycles = float64(tr.Cycles)
		source = fmt.Sprintf("%s (n=%d, %d packets, %d cycles)", *in, tr.N, len(tr.Packets), tr.Cycles)
	case *matrix != "":
		f, err := os.Open(*matrix)
		if err != nil {
			fail("power", err)
		}
		m, err := trace.ReadCSV(f)
		if err != nil {
			fail("power", err)
		}
		if err := f.Close(); err != nil {
			fail("power", err)
		}
		profile = m
		cycles = *cyc
		source = fmt.Sprintf("%s (n=%d CSV matrix, %.0f cycles)", *matrix, m.N, cycles)
	default:
		fail("power", fmt.Errorf("-i or -matrix is required"))
	}

	store, err := runner.NewStore(*cacheDir)
	if err != nil {
		fail("power", err)
	}
	sys, err := core.NewSystem(profile.N)
	if err != nil {
		fail("power", err)
	}

	base, err := sys.Design(core.Base, nil)
	if err != nil {
		fail("power", err)
	}
	design := base
	if *qap {
		asg, err := runner.CachedQAP(store, profile, *seed, 0, func() (mapping.Assignment, error) {
			d, err := design.WithQAPMapping(profile, core.QAPOptions{Seed: *seed})
			if err != nil {
				return nil, err
			}
			return d.Mapping, nil
		})
		if err != nil {
			fail("power", err)
		}
		if design, err = design.WithMapping(asg); err != nil {
			fail("power", err)
		}
	}
	mapped, err := design.MappedTraffic(profile)
	if err != nil {
		fail("power", err)
	}
	// The kind's design is built from the input's own (mapped) profile
	// and keeps the mapping.
	pt, err := sys.Design(spec.OnProfile(), mapped)
	if err != nil {
		fail("power", err)
	}
	if design, err = pt.WithMapping(design.Mapping); err != nil {
		fail("power", err)
	}

	bd, err := design.Power(profile, cycles)
	if err != nil {
		fail("power", err)
	}
	baseBd, err := base.Network.Evaluate(profile, cycles)
	if err != nil {
		fail("power", err)
	}

	// The clustered baselines need at least two 4-node clusters.
	var rb, cb power.Breakdown
	haveClustered := profile.N >= 8 && profile.N%4 == 0
	if haveClustered {
		rnoc, err := power.NewRNoC(profile.N, 4)
		if err != nil {
			fail("power", err)
		}
		if rb, err = rnoc.Evaluate(profile, cycles); err != nil {
			fail("power", err)
		}
		cm, err := power.NewCMNoC(profile.N, 4)
		if err != nil {
			fail("power", err)
		}
		if cb, err = cm.Evaluate(profile, cycles); err != nil {
			fail("power", err)
		}
	}

	fmt.Printf("input:     %s\n", source)
	fmt.Printf("design:    %s  qap=%v\n", design.Topology.Name, *qap)
	row := func(name string, b power.Breakdown) {
		fmt.Printf("%-10s total=%-10s source=%-10s oe=%-10s elec=%-10s ring=%-10s laser=%s\n",
			name, phys.FormatPower(b.TotalUW()), phys.FormatPower(b.SourceUW),
			phys.FormatPower(b.OEUW), phys.FormatPower(b.ElectricalUW),
			phys.FormatPower(b.RingTrimUW), phys.FormatPower(b.LaserUW))
	}
	row("design", bd)
	row("base mNoC", baseBd)
	if haveClustered {
		row("rNoC", rb)
		row("c_mNoC", cb)
	}
	fmt.Printf("reduction vs base mNoC: %.1f%%\n", 100*(1-bd.TotalUW()/baseBd.TotalUW()))
}
