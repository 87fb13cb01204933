package harness

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/fabric"
	"repro/internal/results"
)

// Experiment is one named, registered paper experiment. Run executes it
// at the given scale and returns the uniform structured result; the
// registry wrapper validates and defaults the options and stamps
// metadata (name, description, scale, wall time), so Run
// implementations only fill the payload.
type Experiment struct {
	// Name is the registry key, e.g. "fig6".
	Name string
	// Desc is a one-line description shown by `slingshot-sim list`.
	Desc string
	// DefaultOptions are the experiment's default scale knobs; zero
	// fields of the options passed to Run are filled from here before
	// the experiment sees them.
	DefaultOptions Options
	// Prepare, when set, adjusts the raw options before defaults are
	// merged — it is the only hook that can still distinguish "field
	// not specified" (zero) from an explicit value.
	Prepare func(Options) Options
	// MinNodes is the smallest machine Run can split into its jobs; the
	// registered Run returns an error when Options.Nodes, after
	// defaults, is below it.
	MinNodes int
	// Run executes the experiment.
	Run func(Options) (*results.Result, error)
}

var registry = map[string]*Experiment{} //simlint:shared -- written only by init-time Register (panics on duplicates); read-only once main starts

// Register adds an experiment to the registry. It panics on a duplicate
// or empty name — registration happens in init functions, so both are
// programming errors. The registered Run is wrapped to reject negative
// scale and parallelism options, an unknown Options.Fidelity, Panel or
// Victims, and a machine below MinNodes with an error, to apply the
// experiment's defaults, and to stamp result metadata and wall time. The
// wrapper is the only way to run an experiment.
func Register(e Experiment) {
	if e.Name == "" {
		panic("harness: Register with empty experiment name")
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment %q", e.Name))
	}
	run := e.Run
	if run == nil {
		panic(fmt.Sprintf("harness: experiment %q has no Run", e.Name))
	}
	name, desc := e.Name, e.Desc
	prepare, defaults, minNodes := e.Prepare, e.DefaultOptions, e.MinNodes
	e.Run = func(opt Options) (*results.Result, error) {
		// Checked before prepare and withDefaults, which pass negative
		// counts through or overwrite them.
		if opt.Nodes < 0 || opt.MinIters < 0 || opt.MaxIters < 0 || opt.PPN < 0 {
			return nil, fmt.Errorf("%s: negative scale option (Nodes %d, MinIters %d, MaxIters %d, PPN %d)",
				name, opt.Nodes, opt.MinIters, opt.MaxIters, opt.PPN)
		}
		if opt.Jobs < 0 || opt.Domains < 0 {
			return nil, fmt.Errorf("%s: negative parallelism option (Jobs %d, Domains %d)",
				name, opt.Jobs, opt.Domains)
		}
		if _, err := fabric.ParseFidelity(opt.Fidelity); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		switch opt.Panel {
		case "", "A", "B", "C":
		default:
			return nil, fmt.Errorf("%s: unknown panel %q (want A|B|C)", name, opt.Panel)
		}
		if opt.Victims < VictimsQuick || opt.Victims > VictimsFull {
			return nil, fmt.Errorf("%s: unknown victim set %d", name, opt.Victims)
		}
		if prepare != nil {
			opt = prepare(opt)
		}
		opt = opt.withDefaults(defaults)
		if opt.Nodes < minNodes {
			return nil, fmt.Errorf("%s: needs at least %d nodes, got %d", name, minNodes, opt.Nodes)
		}
		start := wallClock.Now()
		res, err := run(opt)
		if err != nil {
			return nil, err
		}
		res.Meta.Experiment = name
		if res.Meta.Desc == "" {
			res.Meta.Desc = desc
		}
		res.Meta.Seed = opt.Seed
		res.Meta.Nodes = opt.Nodes
		res.Meta.PPN = opt.PPN
		res.Meta.Wall = wallClock.Now().Sub(start)
		return res, nil
	}
	registry[e.Name] = &e
}

// Lookup returns the named experiment, or nil when unknown.
func Lookup(name string) *Experiment {
	return registry[name]
}

// All returns every registered experiment in natural name order
// (fig2 before fig10).
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, ni := splitNum(out[i].Name)
		pj, nj := splitNum(out[j].Name)
		if pi != pj {
			return pi < pj
		}
		if ni != nj {
			return ni < nj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// splitNum splits a trailing integer off a name for natural ordering.
func splitNum(name string) (string, int) {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) {
		return name, -1
	}
	n, _ := strconv.Atoi(name[i:])
	return name[:i], n
}
