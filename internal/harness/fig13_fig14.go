package harness

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/qos"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workloads"
)

var (
	fig13Defaults = Options{Nodes: 32}
	fig14Defaults = Options{Nodes: 32}
)

const (
	// fig13MinNodes gives the victim job (half the machine) two ranks: a
	// one-rank Allreduce completes without advancing simulated time, so
	// fig13's measurement loop would never reach its horizon.
	fig13MinNodes = 4
	// fig14MinNodes gives each of the two jobs a node.
	fig14MinNodes = 2
)

func init() {
	Register(Experiment{
		Name:           "fig13",
		Desc:           "traffic-class isolation of a latency-critical allreduce over time",
		DefaultOptions: fig13Defaults,
		Run: func(opt Options) (*results.Result, error) {
			r, err := Fig13TrafficClasses(opt)
			if err != nil {
				return nil, err
			}
			return r.Result(), nil
		},
	})
	Register(Experiment{
		Name:           "fig14",
		Desc:           "guaranteed-minimum bandwidth split between two jobs over time",
		DefaultOptions: fig14Defaults,
		Run: func(opt Options) (*results.Result, error) {
			r, err := Fig14Bandwidth(opt)
			if err != nil {
				return nil, err
			}
			return r.Result(), nil
		},
	})
}

// qosCheck rejects the options fig13 and fig14 cannot run: fewer than
// minNodes nodes, or a fidelity other than packet. Both figures measure
// traffic classes, which act on switch queues that fluid transfers
// bypass, and fig14 counts bandwidth through Taps.OnPacketDelivered,
// which fluid transfers never fire.
func qosCheck(name string, opt Options, minNodes int) error {
	if opt.Nodes < minNodes {
		return fmt.Errorf("harness: %s needs at least %d nodes, got %d", name, minNodes, opt.Nodes)
	}
	f, err := fabric.ParseFidelity(opt.Fidelity)
	if err != nil {
		return err
	}
	if f != fabric.FidelityPacket {
		return fmt.Errorf("harness: %s runs only at packet fidelity, got %s", name, f)
	}
	return nil
}

// qosNetwork builds the network fig13 and fig14 measure on: the whole
// (scaled) Malbec, so the two interleaved jobs genuinely share fabric
// links, tapered to 25% as in the paper to force interference, with the
// given traffic classes.
func qosNetwork(opt Options, classes *qos.Config) *fabric.Network {
	sys := Malbec(opt.Nodes)
	sys.Prof.Taper = 0.25
	sys.Prof.QoS = classes
	sys.Domains = opt.Domains
	return sys.build(opt.Seed)
}

// qosTwoClasses builds the Fig. 13 configuration: a high-priority,
// low-bandwidth class for latency-critical collectives and a default bulk
// class — §II-E's worked example.
func qosTwoClasses() *qos.Config {
	return &qos.Config{Classes: []qos.Class{
		{Name: "bulk", DSCP: 0, Priority: 0, MinShare: 0.5, MinimalBias: 1},
		{Name: "latency", DSCP: 10, Priority: 5, MinShare: 0.1, MinimalBias: 2},
	}}
}

// qosMinBandwidth builds the Fig. 14 configuration: TC1 with a guaranteed
// 80% minimum, TC2 with 10%.
func qosMinBandwidth() *qos.Config {
	return &qos.Config{Classes: []qos.Class{
		{Name: "tc1", DSCP: 0, MinShare: 0.8, MinimalBias: 1},
		{Name: "tc2", DSCP: 20, MinShare: 0.1, MinimalBias: 1},
	}}
}

// Fig13Point is one allreduce iteration in the Fig. 13 time series.
type Fig13Point struct {
	At     sim.Time
	Impact float64
}

// Fig13Result reproduces Fig. 13: the congestion impact over time of an
// 8 B MPI_Allreduce co-executed with a 256 KiB MPI_Alltoall on a
// bandwidth-tapered Malbec, with the two jobs in the same or in separate
// traffic classes.
type Fig13Result struct {
	SameTC     []Fig13Point
	SeparateTC []Fig13Point
	// Steady-state impacts after the aggressor starts.
	SameImpact, SeparateImpact float64
}

// Fig13TrafficClasses runs both configurations (in parallel — each owns
// its network).
func Fig13TrafficClasses(opt Options) (Fig13Result, error) {
	opt = opt.withDefaults(fig13Defaults)
	if err := qosCheck("fig13", opt, fig13MinNodes); err != nil {
		return Fig13Result{}, err
	}
	type run struct {
		pts    []Fig13Point
		impact float64
	}
	runs := parallelMap(opt.gridJobs(), []bool{false, true}, func(separate bool) run {
		pts, impact := fig13Run(opt, separate)
		return run{pts, impact}
	})
	return Fig13Result{
		SameTC: runs[0].pts, SameImpact: runs[0].impact,
		SeparateTC: runs[1].pts, SeparateImpact: runs[1].impact,
	}, nil
}

func fig13Run(opt Options, separate bool) ([]Fig13Point, float64) {
	latClass := 0 // same TC: both jobs in bulk
	if separate {
		latClass = 1
	}
	net := qosNetwork(opt, qosTwoClasses())
	vNodes, aNodes := placement.Split(opt.Nodes, opt.Nodes/2, placement.Interleaved, nil)
	vjob := mpi.NewJob(net, vNodes, mpi.JobOpts{Stack: mpi.MPI, Class: latClass, Tag: 1})
	ajob := mpi.NewJob(net, aNodes, mpi.JobOpts{Stack: mpi.MPI, Class: 0, Tag: 2})

	// The alltoall job starts ~0.4 ms into the test (as in the paper).
	const aggrStart = 400 * sim.Microsecond
	start := &startAlltoall{job: ajob, bytes: 256 * 1024}
	net.Eng.Schedule(aggrStart, start, 0, nil)

	// Run the allreduce continuously, recording iteration durations.
	const horizon = 3 * sim.Millisecond
	var pts []Fig13Point
	baseline := stats.NewSample(64)
	after := stats.NewSample(256)
	var durs []struct {
		at  sim.Time
		dur sim.Time
	}
	for net.Now() < horizon {
		start := net.Now()
		fin := false
		vjob.Allreduce(8, func(sim.Time) { fin = true })
		net.RunWhile(func() bool { return !fin })
		if !fin {
			break
		}
		d := net.Now() - start
		durs = append(durs, struct {
			at  sim.Time
			dur sim.Time
		}{net.Now(), d})
		if net.Now() < aggrStart {
			baseline.Add(d.Microseconds())
		} else if net.Now() > aggrStart+200*sim.Microsecond {
			after.Add(d.Microseconds())
		}
	}
	if start.agg != nil {
		start.agg.Stop()
	}
	base := baseline.Mean()
	for _, d := range durs {
		pts = append(pts, Fig13Point{At: d.at, Impact: d.dur.Microseconds() / base})
	}
	return pts, after.Mean() / base
}

// startAlltoall is the delayed-aggressor-start event handler of fig13Run;
// it keeps the handle of the aggressor it launched for the wind-down.
type startAlltoall struct {
	job   *mpi.Job
	bytes int64
	agg   *workloads.Aggressor
}

func (s *startAlltoall) OnEvent(*sim.Engine, *sim.Event) {
	s.agg = workloads.StartAlltoall(s.job, s.bytes)
}

// Result converts the measurement to the uniform structured form: the
// steady-state table plus one impact-over-time series per configuration.
func (r Fig13Result) Result() *results.Result {
	res := &results.Result{}
	res.AddTable("steady-state", "configuration", "impact").
		Row(results.String("same traffic class"), results.Float(r.SameImpact, 2)).
		Row(results.String("separate traffic classes"), results.Float(r.SeparateImpact, 2))
	series := func(name string, pts []Fig13Point) results.Series {
		s := results.Series{Name: name, XUnit: "us", YUnit: "impact"}
		for _, p := range pts {
			s.Points = append(s.Points, results.Point{X: p.At.Microseconds(), Y: p.Impact})
		}
		return s
	}
	res.AddSeries(series("same-tc", r.SameTC))
	res.AddSeries(series("separate-tc", r.SeparateTC))
	return res
}

// Fig14Series is one job's bandwidth-over-time trace.
type Fig14Series struct {
	Job     string
	Bucket  sim.Time
	GbsNode []float64 // per-node Gb/s per time bucket
}

// Fig14Result reproduces Fig. 14: two bisection-bandwidth jobs on a
// tapered system, either sharing TC1 or split across TC1 (min 80%) and
// TC2 (min 10%).
type Fig14Result struct {
	SameTC     []Fig14Series
	SeparateTC []Fig14Series
}

// Fig14Bandwidth runs both configurations (in parallel — each owns its
// network).
func Fig14Bandwidth(opt Options) (Fig14Result, error) {
	opt = opt.withDefaults(fig14Defaults)
	if err := qosCheck("fig14", opt, fig14MinNodes); err != nil {
		return Fig14Result{}, err
	}
	runs := parallelMap(opt.gridJobs(), []bool{false, true}, func(separate bool) []Fig14Series {
		return fig14Run(opt, separate)
	})
	return Fig14Result{SameTC: runs[0], SeparateTC: runs[1]}, nil
}

func fig14Run(opt Options, separate bool) []Fig14Series {
	net := qosNetwork(opt, qosMinBandwidth())

	half := opt.Nodes / 2
	j1Nodes, j2Nodes := placement.Split(opt.Nodes, half, placement.Interleaved, nil)
	class2 := 0
	if separate {
		class2 = 1
	}

	const (
		bucket   = 100 * sim.Microsecond
		buckets  = 40
		j2Start  = 900 * sim.Microsecond // paper: job 2 starts at 0.9 ms
		j1End    = 2500 * sim.Microsecond
		msgBytes = 64 * 1024
		window   = 8
	)
	perJob := [2][]float64{}
	perJob[0] = make([]float64, buckets)
	perJob[1] = make([]float64, buckets)
	net.Taps.OnPacketDelivered = func(p *fabric.Packet, at sim.Time) {
		b := int(at / bucket)
		if b < 0 || b >= buckets {
			return
		}
		tag := p.Msg.Tag
		if tag == 1 || tag == 2 {
			perJob[tag-1][b] += float64(p.Payload)
		}
	}

	// A "bisection bandwidth test": node i streams to its partner in the
	// other half of the job, in both directions, keeping `window` messages
	// outstanding per direction, until the job's end time.
	startJob := func(nodes []topology.NodeID, class int, tag int64, from, until sim.Time) {
		j := mpi.NewJob(net, nodes, mpi.JobOpts{Stack: mpi.MPI, Class: class, Tag: tag})
		net.Eng.Schedule(from, &startBisection{
			j: j, until: until, msgBytes: msgBytes, window: window,
		}, 0, nil)
	}
	startJob(j1Nodes, 0, 1, 0, j1End)
	startJob(j2Nodes, class2, 2, j2Start, sim.Time(buckets)*bucket)

	net.RunFor(sim.Time(buckets) * bucket)

	mk := func(i int, name string, nodes int) Fig14Series {
		s := Fig14Series{Job: name, Bucket: bucket}
		for _, bytes := range perJob[i] {
			gbs := bytes * 8 / bucket.Seconds() / 1e9 / float64(nodes)
			s.GbsNode = append(s.GbsNode, gbs)
		}
		return s
	}
	return []Fig14Series{
		mk(0, "job1", len(j1Nodes)),
		mk(1, "job2", len(j2Nodes)),
	}
}

// startBisection launches one fig14 bisection-bandwidth job at its start
// time: every rank streams to its partner in the other half, keeping
// `window` puts outstanding until the job's end time.
type startBisection struct {
	j        *mpi.Job
	until    sim.Time
	msgBytes int64
	window   int
}

func (s *startBisection) OnEvent(*sim.Engine, *sim.Event) {
	n := s.j.Size()
	for r := 0; r < n; r++ {
		p := &bisectionRank{op: s, r: r, partner: (r + n/2) % n}
		p.onPut = func(sim.Time) { p.post() } //simlint:allocok -- one callback per rank at job launch, reused for every put
		for w := 0; w < s.window; w++ {
			p.post()
		}
	}
}

// bisectionRank is one streaming rank of a fig14 job.
type bisectionRank struct {
	op         *startBisection
	r, partner int
	onPut      func(sim.Time)
}

func (p *bisectionRank) post() {
	if p.op.j.Net.Now() >= p.op.until {
		return
	}
	p.op.j.Put(p.r, p.partner, p.op.msgBytes, p.onPut)
}

// shareDuringOverlap returns each job's mean bandwidth share while both
// jobs run (buckets 12..22 with the default timing).
func shareDuringOverlap(series []Fig14Series) (j1, j2 float64) {
	sum := func(s Fig14Series, lo, hi int) float64 {
		t := 0.0
		for i := lo; i < hi && i < len(s.GbsNode); i++ {
			t += s.GbsNode[i]
		}
		return t
	}
	a := sum(series[0], 12, 22)
	b := sum(series[1], 12, 22)
	if a+b == 0 {
		return 0, 0
	}
	return a / (a + b), b / (a + b)
}

// OverlapShares reports the bandwidth split while both jobs are active,
// for each configuration.
func (r Fig14Result) OverlapShares() (same [2]float64, separate [2]float64) {
	s1, s2 := shareDuringOverlap(r.SameTC)
	same = [2]float64{s1, s2}
	p1, p2 := shareDuringOverlap(r.SeparateTC)
	separate = [2]float64{p1, p2}
	return
}

// Result converts the traces to the uniform structured form: per-job
// bandwidth series for each configuration plus the overlap-share table.
func (r Fig14Result) Result() *results.Result {
	res := &results.Result{}
	same, sep := r.OverlapShares()
	res.AddTable("overlap-share", "configuration", "job1_share", "job2_share").
		Row(results.String("same TC"), results.Float(same[0], 2), results.Float(same[1], 2)).
		Row(results.String("separate TCs (min 80% / min 10%)"),
			results.Float(sep[0], 2), results.Float(sep[1], 2))
	add := func(cfg string, traces []Fig14Series) {
		for _, tr := range traces {
			s := results.Series{
				Name:  cfg + "/" + tr.Job,
				XUnit: "us", YUnit: "Gb/s/node",
			}
			for i, v := range tr.GbsNode {
				s.Points = append(s.Points, results.Point{
					X: (sim.Time(i) * tr.Bucket).Microseconds(), Y: v,
				})
			}
			res.AddSeries(s)
		}
	}
	add("same-tc", r.SameTC)
	add("separate-tc", r.SeparateTC)
	return res
}
