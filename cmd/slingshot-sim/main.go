// Command slingshot-sim regenerates the paper's experiments on the
// simulated systems, driven by the experiment registry. Experiments
// accept a scale so that full paper-sized grids (512 to 1024 nodes) and
// quick reduced runs use the same code path:
//
//	slingshot-sim list                          # enumerate experiments
//	slingshot-sim run fig2                      # switch latency distribution
//	slingshot-sim run fig6 -format json         # machine-readable output
//	slingshot-sim run fig9 -nodes 128 -set quick -jobs 8
//	slingshot-sim run fig9 -seeds 1,2,3 -format csv
//	slingshot-sim run topo-compare -topo fattree # one backend of the sweep
//	slingshot-sim run policy-compare -routing ecmp -cc delay
//	slingshot-sim run all                       # every experiment, default scale
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/routing"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list(os.Stdout)
	case "run":
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "slingshot-sim:", err)
			os.Exit(2)
		}
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "slingshot-sim: unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w *os.File) {
	fmt.Fprintf(w, `usage:
  slingshot-sim list                     list registered experiments
  slingshot-sim run <name>... [flags]    run experiments (or "run all")

run flags:
`)
	fs := runFlags(&runConfig{})
	fs.SetOutput(w)
	fs.PrintDefaults()
}

// list prints the registry as a table.
func list(w *os.File) {
	res := &results.Result{}
	t := res.AddTable("", "name", "default nodes", "description")
	for _, e := range harness.All() {
		t.Row(
			results.String(e.Name),
			results.Int(int64(e.DefaultOptions.Nodes)),
			results.String(e.Desc),
		)
	}
	fmt.Fprint(w, results.TextString(res))
}

// runConfig holds the run-verb flag values.
type runConfig struct {
	nodes    int
	minIters int
	maxIters int
	seed     uint64
	seeds    string
	ppn      int
	jobs     int
	domains  int
	set      string
	panel    string
	topo     string
	routing  string
	cc       string
	fidelity string
	format   string
}

func runFlags(c *runConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.IntVar(&c.nodes, "nodes", 0, "experiment node count (0 = experiment default)")
	fs.IntVar(&c.minIters, "min-iters", 0, "min measurement iterations per point (0 = default)")
	fs.IntVar(&c.maxIters, "iters", 0, "max measurement iterations per point (0 = default)")
	fs.Uint64Var(&c.seed, "seed", 42, "experiment seed (runs are deterministic per seed)")
	fs.StringVar(&c.seeds, "seeds", "", "comma-separated seed replicas, e.g. 1,2,3 (overrides -seed)")
	fs.IntVar(&c.ppn, "ppn", 0,
		"aggressor processes per node / fig6 ranks per node (0 = experiment default, usually 1)")
	fs.IntVar(&c.jobs, "jobs", 0, "worker pool size for independent grid points (0 = all cores)")
	fs.IntVar(&c.domains, "domains", 0,
		"sharded parallel engine worker budget per network (0 = classic "+
			"single-threaded engine; results are identical for every budget >= 1)")
	fs.StringVar(&c.set, "set", "quick", "victim set for fig9/fig10: quick|apps|full")
	fs.StringVar(&c.panel, "panel", "A", "fig10 panel: A (allocations), B (high PPN), C (small)")
	fs.StringVar(&c.topo, "topo", "",
		"topo-compare/policy-compare backend: dragonfly|fattree|hyperx (empty = all three)")
	fs.StringVar(&c.routing, "routing", "",
		"policy-compare routing policy: "+strings.Join(routing.Names(), "|")+" (empty = all)")
	fs.StringVar(&c.cc, "cc", "",
		"policy-compare congestion control: "+strings.Join(congestion.Names(), "|")+
			" (empty = slingshot|ecn|delay)")
	fs.StringVar(&c.fidelity, "fidelity", "packet",
		"byte-movement fidelity: "+strings.Join(fabric.FidelityNames(), "|")+
			" (flow runs every transfer on the fluid engine; hybrid keeps "+
			"victims and hotspots packet-level)")
	fs.StringVar(&c.format, "format", "table",
		"output format: "+strings.Join(results.Formats(), "|"))
	return fs
}

// run executes `slingshot-sim run <name>... [flags]`: experiment names
// come first, flags after.
func run(args []string) error {
	var names []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		names = append(names, args[0])
		args = args[1:]
	}
	var cfg runConfig
	fs := runFlags(&cfg)
	fs.SetOutput(io.Discard) // errors are reported once, by our caller
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(os.Stdout)
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("experiment names must precede flags (stray argument %q)", fs.Arg(0))
	}
	if len(names) == 0 {
		return fmt.Errorf(`no experiments named (try "slingshot-sim list" or "run all")`)
	}

	var exps []*harness.Experiment
	seen := map[string]bool{}
	add := func(e *harness.Experiment) {
		if !seen[e.Name] {
			seen[e.Name] = true
			exps = append(exps, e)
		}
	}
	for _, name := range names {
		if name == "all" {
			for _, e := range harness.All() {
				add(e)
			}
			continue
		}
		e := harness.Lookup(name)
		if e == nil {
			return fmt.Errorf("unknown experiment %q (see: slingshot-sim list)", name)
		}
		add(e)
	}

	vs, err := victimSet(cfg.set)
	if err != nil {
		return err
	}
	switch cfg.topo {
	case "", "dragonfly", "fattree", "hyperx":
	default:
		return fmt.Errorf("unknown topology %q (want dragonfly|fattree|hyperx)", cfg.topo)
	}
	if cfg.routing != "" {
		if _, err := routing.ByName(cfg.routing); err != nil {
			return err
		}
	}
	if cfg.cc != "" {
		if _, err := congestion.ByName(cfg.cc); err != nil {
			return err
		}
	}
	seeds, err := parseSeeds(cfg.seeds, cfg.seed)
	if err != nil {
		return err
	}
	enc, err := results.NewEncoder(cfg.format)
	if err != nil {
		return err
	}

	// Text and CSV stream each result as its run completes (long grids
	// show progress and survive interruption); JSON buffers so multiple
	// results form one valid array.
	var out []*results.Result
	done := 0
	for _, e := range exps {
		for _, seed := range seeds {
			opt := harness.Options{
				Nodes:    cfg.nodes,
				MinIters: cfg.minIters,
				MaxIters: cfg.maxIters,
				Seed:     seed,
				PPN:      cfg.ppn,
				Jobs:     cfg.jobs,
				Domains:  cfg.domains,
				Victims:  vs,
				Panel:    cfg.panel,
				Topo:     cfg.topo,
				Routing:  cfg.routing,
				CC:       cfg.cc,
				Fidelity: cfg.fidelity,
			}
			res, err := e.Run(opt) // its errors already name the experiment
			if err != nil {
				return err
			}
			if cfg.format == "json" {
				out = append(out, res)
				continue
			}
			if done > 0 {
				fmt.Println()
			}
			done++
			if err := enc.Encode(os.Stdout, res); err != nil {
				return err
			}
		}
	}
	if cfg.format == "json" {
		return results.EncodeAll(os.Stdout, cfg.format, out)
	}
	return nil
}

func victimSet(s string) (harness.VictimSet, error) {
	switch s {
	case "quick":
		return harness.VictimsQuick, nil
	case "apps":
		return harness.VictimsApps, nil
	case "full":
		return harness.VictimsFull, nil
	}
	return 0, fmt.Errorf("unknown victim set %q (want quick|apps|full)", s)
}

// errSeedZero rejects seed 0, which harness.Options reads as "use the
// default" and would silently replace with 42.
var errSeedZero = errors.New("seed 0 is reserved for the default (42); use a nonzero seed")

func parseSeeds(list string, fallback uint64) ([]uint64, error) {
	if list == "" {
		if fallback == 0 {
			return nil, errSeedZero
		}
		return []uint64{fallback}, nil
	}
	var out []uint64
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q in -seeds", f)
		}
		if s == 0 {
			return nil, errSeedZero
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-seeds lists no seeds")
	}
	return out, nil
}
