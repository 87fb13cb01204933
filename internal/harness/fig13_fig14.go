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

func init() {
	Register(Experiment{
		Name:           "fig13",
		Desc:           "traffic-class isolation of a latency-critical allreduce over time",
		DefaultOptions: Options{Nodes: 32},
		MinNodes:       MinCellNodes,
		Run:            fig13,
	})
	Register(Experiment{
		Name:           "fig14",
		Desc:           "guaranteed-minimum bandwidth split between two jobs over time",
		DefaultOptions: Options{Nodes: 32},
		MinNodes:       MinCellNodes,
		Run:            fig14,
	})
}

// qosCheck rejects a fidelity other than packet, which fig13 and fig14
// cannot run: both figures measure traffic classes, which act on switch
// queues that fluid transfers bypass, and fig14 counts bandwidth through
// Taps.OnPacketDelivered, which fluid transfers never fire.
func qosCheck(opt Options) error {
	if f := opt.fidelity(); f != fabric.FidelityPacket {
		return fmt.Errorf("runs only at packet fidelity, got %s", f)
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
		{Name: "bulk", Priority: 0, MinShare: 0.5, MinimalBias: 1},
		{Name: "latency", Priority: 5, MinShare: 0.1, MinimalBias: 2},
	}}
}

// qosMinBandwidth builds the Fig. 14 configuration: TC1 with a guaranteed
// 80% minimum, TC2 with 10%.
func qosMinBandwidth() *qos.Config {
	return &qos.Config{Classes: []qos.Class{
		{Name: "tc1", MinShare: 0.8, MinimalBias: 1},
		{Name: "tc2", MinShare: 0.1, MinimalBias: 1},
	}}
}

// fig13 reproduces Fig. 13: the congestion impact over time of an 8 B
// MPI_Allreduce co-executed with a 256 KiB MPI_Alltoall on a
// bandwidth-tapered Malbec, with the two jobs in the same or in separate
// traffic classes. It writes the steady-state impacts after the
// aggressor starts plus one impact-over-time series per configuration;
// the two configurations run in parallel, each on its own network.
func fig13(opt Options) (*results.Result, error) {
	if err := qosCheck(opt); err != nil {
		return nil, err
	}
	type run struct {
		series results.Series
		impact float64
	}
	runs := parallelMap(opt.gridJobs(), []bool{false, true}, func(separate bool) run {
		s, impact := fig13Run(opt, separate)
		return run{s, impact}
	})
	res := &results.Result{}
	res.AddTable("steady-state", "configuration", "impact").
		Row(results.String("same traffic class"), results.Float(runs[0].impact, 2)).
		Row(results.String("separate traffic classes"), results.Float(runs[1].impact, 2))
	res.AddSeries(runs[0].series)
	res.AddSeries(runs[1].series)
	return res, nil
}

// fig13Run measures one fig13 configuration: the allreduce's impact over
// time as a series, and its steady-state impact.
func fig13Run(opt Options, separate bool) (results.Series, float64) {
	latClass := 0 // same TC: both jobs in bulk
	series := results.Series{Name: "same-tc", XUnit: "us", YUnit: "impact"}
	if separate {
		latClass = 1
		series.Name = "separate-tc"
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
		series.Points = append(series.Points, results.Point{X: d.at.Microseconds(), Y: d.dur.Microseconds() / base})
	}
	return series, after.Mean() / base
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

// fig14 reproduces Fig. 14: two bisection-bandwidth jobs on a tapered
// system, either sharing TC1 or split across TC1 (min 80%) and TC2 (min
// 10%). It writes each job's bandwidth split while both run, plus
// per-job bandwidth series for each configuration; the two
// configurations run in parallel, each on its own network.
func fig14(opt Options) (*results.Result, error) {
	if err := qosCheck(opt); err != nil {
		return nil, err
	}
	runs := parallelMap(opt.gridJobs(), []bool{false, true}, func(separate bool) []results.Series {
		return fig14Run(opt, separate)
	})
	res := &results.Result{}
	t := res.AddTable("overlap-share", "configuration", "job1_share", "job2_share")
	for i, cfg := range []string{"same TC", "separate TCs (min 80% / min 10%)"} {
		j1, j2 := shareDuringOverlap(runs[i])
		t.Row(results.String(cfg), results.Float(j1, 2), results.Float(j2, 2))
	}
	for _, run := range runs {
		for _, s := range run {
			res.AddSeries(s)
		}
	}
	return res, nil
}

// fig14Run measures one fig14 configuration: each job's per-node
// bandwidth (Gb/s) per time bucket, as one series per job.
func fig14Run(opt Options, separate bool) []results.Series {
	net := qosNetwork(opt, qosMinBandwidth())

	half := opt.Nodes / 2
	j1Nodes, j2Nodes := placement.Split(opt.Nodes, half, placement.Interleaved, nil)
	class2, cfg := 0, "same-tc"
	if separate {
		class2, cfg = 1, "separate-tc"
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

	mk := func(i int, job string, nodes int) results.Series {
		s := results.Series{Name: cfg + "/" + job, XUnit: "us", YUnit: "Gb/s/node"}
		for b, bytes := range perJob[i] {
			gbs := bytes * 8 / bucket.Seconds() / 1e9 / float64(nodes)
			s.Points = append(s.Points, results.Point{X: (sim.Time(b) * bucket).Microseconds(), Y: gbs})
		}
		return s
	}
	return []results.Series{
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
func shareDuringOverlap(jobs []results.Series) (j1, j2 float64) {
	sum := func(s results.Series) float64 {
		t := 0.0
		for _, p := range s.Points[12:22] {
			t += p.Y
		}
		return t
	}
	a := sum(jobs[0])
	b := sum(jobs[1])
	if a+b == 0 {
		return 0, 0
	}
	return a / (a + b), b / (a + b)
}
