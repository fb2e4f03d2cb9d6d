// Command svcsim regenerates the evaluation tables and figures of the SVC
// paper (Yu and Shen, ICDCS 2014) from this reproduction.
//
// Usage:
//
//	svcsim -fig all                 # every experiment at quick scale
//	svcsim -fig 5 -scale paper      # Fig. 5 at the paper's full scale
//	svcsim -fig 7 -loads 0.2,0.4    # override the load sweep
//
// Figures: 5 (batch completion vs oversubscription), 6 (job time vs demand
// deviation), 7 (rejection vs load), 8 (concurrency at 60% load),
// 9 (occupancy CDF, SVC vs adapted TIVC), 10 (rejection, SVC vs adapted
// TIVC), hetero (substring heuristic vs first fit).
//
// Declarative scenarios (docs/SCENARIOS.md) also run here on the offline
// engine — `svcsim -scenario scenarios/baseline.yaml` — while cmd/svcscn
// adds the live-daemon backend and differential mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// startCPUProfile begins a CPU profile into path and returns the stop
// function; diagnose allocator hot-path regressions with
// `go tool pprof svcsim cpu.out`.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile snapshots the heap (after a GC, so it reflects live
// memory) into path.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "svcsim:", err)
		os.Exit(1)
	}
}

type renderer interface{ Render() string }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("svcsim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "experiment to run: 5|6|7|8|9|10|hetero|eps|mixed|burst|defer|locality|tiers|scaling|failures|all")
		scale    = fs.String("scale", "quick", "datacenter/workload scale: quick|paper")
		jobs     = fs.Int("jobs", 0, "override job count")
		seed     = fs.Uint64("seed", 0, "override workload seed")
		oversubs = fs.String("oversubs", "", "comma-separated oversubscription sweep (fig 5)")
		rhos     = fs.String("rhos", "", "comma-separated deviation sweep (fig 6)")
		loads    = fs.String("loads", "", "comma-separated load sweep (figs 7, 9, 10, hetero)")
		load     = fs.Float64("load", 0.6, "load for fig 8")
		mtbfs    = fs.String("mtbfs", "", "comma-separated per-machine MTBF sweep in seconds (failures)")
		mttr     = fs.Float64("mttr", 0, "mean machine repair time in seconds, 0 = default (failures)")
		scn      = fs.String("scenario", "", "run a declarative scenario file on the offline engine instead of a figure (docs/SCENARIOS.md)")
		timing   = fs.Bool("time", false, "print wall-clock time per experiment")
		asJSON   = fs.Bool("json", false, "emit results as JSON instead of tables")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProf != "" {
		defer writeMemProfile(*memProf)
	}

	if *scn != "" {
		return runScenario(*scn, *seed, *asJSON, out)
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or paper)", *scale)
	}
	if *jobs > 0 {
		sc.Jobs = *jobs
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	oversubList, err := parseFloats(*oversubs)
	if err != nil {
		return fmt.Errorf("-oversubs: %w", err)
	}
	rhoList, err := parseFloats(*rhos)
	if err != nil {
		return fmt.Errorf("-rhos: %w", err)
	}
	loadList, err := parseFloats(*loads)
	if err != nil {
		return fmt.Errorf("-loads: %w", err)
	}
	mtbfList, err := parseFloats(*mtbfs)
	if err != nil {
		return fmt.Errorf("-mtbfs: %w", err)
	}

	table := map[string]func() (renderer, error){
		"5":        func() (renderer, error) { return experiments.Fig5(sc, oversubList) },
		"6":        func() (renderer, error) { return experiments.Fig6(sc, rhoList) },
		"7":        func() (renderer, error) { return experiments.Fig7(sc, loadList) },
		"8":        func() (renderer, error) { return experiments.Fig8(sc, *load) },
		"9":        func() (renderer, error) { return experiments.Fig9(sc, loadList) },
		"10":       func() (renderer, error) { return experiments.Fig10(sc, loadList) },
		"hetero":   func() (renderer, error) { return experiments.Hetero(sc, loadList) },
		"eps":      func() (renderer, error) { return experiments.EpsSweep(sc, *load, nil) },
		"mixed":    func() (renderer, error) { return experiments.Mixed(sc, *load, nil) },
		"burst":    func() (renderer, error) { return experiments.Burst(sc, 0, nil) },
		"defer":    func() (renderer, error) { return experiments.Deferral(sc, *load, nil) },
		"locality": func() (renderer, error) { return experiments.Locality(sc) },
		"tiers":    func() (renderer, error) { return experiments.Tiers(sc, *load) },
		"scaling":  func() (renderer, error) { return experiments.ScaleSweep(*load, nil) },
		"failures": func() (renderer, error) { return experiments.Failures(sc, *load, *mttr, mtbfList) },
	}
	order := []string{"5", "6", "7", "8", "9", "10", "hetero", "eps", "mixed", "burst", "defer", "locality", "tiers", "scaling", "failures"}

	var selected []string
	if *fig == "all" {
		selected = order
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := table[f]; !ok {
				return fmt.Errorf("unknown figure %q", f)
			}
			selected = append(selected, f)
		}
	}

	for _, f := range selected {
		start := time.Now()
		res, err := table[f]()
		if err != nil {
			return fmt.Errorf("fig %s: %w", f, err)
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			if err := enc.Encode(map[string]any{"figure": f, "result": res}); err != nil {
				return err
			}
		} else {
			fmt.Fprint(out, res.Render())
			fmt.Fprintln(out)
		}
		if *timing {
			fmt.Fprintf(out, "[fig %s took %v]\n", f, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// runScenario executes one declarative scenario on the offline engine
// and renders its report; a failed assertion is an error so the exit
// status reflects the verdict (cmd/svcscn is the full driver).
func runScenario(path string, seed uint64, asJSON bool, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := scenario.Decode(data)
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return err
	}
	if seed != 0 {
		s.Seed = seed
	}
	plan, err := s.Compile()
	if err != nil {
		return err
	}
	b, err := scenario.NewSimBackend(plan.Topo, s.Eps)
	if err != nil {
		return err
	}
	defer b.Close()
	rep, err := scenario.Run(plan, b)
	if err != nil {
		return err
	}
	if asJSON {
		buf, err := rep.JSON()
		if err != nil {
			return err
		}
		if _, err := out.Write(append(buf, '\n')); err != nil {
			return err
		}
	} else if _, err := io.WriteString(out, rep.Render()); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("scenario %s failed its assertions", s.Name)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
