// Comm-aware design study: the Figure 8/9 ladder on live workloads.
//
// For a handful of SPLASH-2 stand-ins, this example evaluates the
// broadcast baseline, the naive distance-based topologies, and the
// communication-aware designs — with and without QAP thread mapping —
// and prints the normalized power of each, reproducing the paper's
// "more is less, less is more" progression.
//
//	go run ./examples/commaware
package main

import (
	"fmt"
	"log"

	"mnoc/internal/core"
	"mnoc/internal/trace"
)

func main() {
	const n = 64
	sys, err := core.NewSystem(n)
	if err != nil {
		log.Fatal(err)
	}

	dist2, err := sys.Design(core.Dist2, nil)
	if err != nil {
		log.Fatal(err)
	}
	dist4, err := sys.Design(core.Dist4, nil)
	if err != nil {
		log.Fatal(err)
	}
	base, err := sys.Design(core.Base, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %8s %8s %8s %8s %8s\n", "benchmark", "1M", "2M_N", "4M_N", "4M_T_N", "4M_T_G")
	for _, bench := range []string{"barnes", "ocean_c", "fft", "water_s", "cholesky", "volrend"} {
		profile, err := sys.Profile(bench, 1)
		if err != nil {
			log.Fatal(err)
		}
		baseW := watts(base, profile)

		// QAP mapping shared by the T columns.
		withMap, err := base.WithQAPMapping(profile, core.QAPOptions{Seed: 1, Iterations: 800})
		if err != nil {
			log.Fatal(err)
		}
		mappedTraffic, err := withMap.MappedTraffic(profile)
		if err != nil {
			log.Fatal(err)
		}
		dist4T, err := dist4.WithMapping(withMap.Mapping)
		if err != nil {
			log.Fatal(err)
		}
		ca, err := sys.Design(core.Comm4.OnProfile(), mappedTraffic)
		if err != nil {
			log.Fatal(err)
		}
		caT, err := ca.WithMapping(withMap.Mapping)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-10s %8.3f %8.3f %8.3f %8.3f %8.3f\n", bench,
			1.0,
			watts(dist2, profile)/baseW,
			watts(dist4, profile)/baseW,
			watts(dist4T, profile)/baseW,
			watts(caT, profile)/baseW)
	}
	fmt.Println("\ncolumns: normalized mNoC power (1M = broadcast baseline);")
	fmt.Println("N = distance-based modes, T = taboo thread mapping, G = comm-aware modes")
}

func watts(d *core.Design, profile *trace.Matrix) float64 {
	b, err := d.Power(profile, core.ProfileCycles)
	if err != nil {
		log.Fatal(err)
	}
	return b.TotalWatts()
}
