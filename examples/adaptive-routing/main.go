// Adaptive-routing study (§II-C): many simultaneous flows between two
// Dragonfly groups stress the minimal global links. With adaptive routing
// the source switches observe the request-queue depths and divert packets
// over non-minimal paths through intermediate groups; with minimal-only
// routing the flows serialize on the direct links.
package main

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	for _, adaptive := range []bool{false, true} {
		elapsed, hops := run(adaptive)
		mode := "minimal-only"
		if adaptive {
			mode = "adaptive    "
		}
		fmt.Printf("%s  completion %8v   mean switch hops/packet %.2f\n", mode, elapsed, hops)
	}
	fmt.Println("\nadaptive routing trades longer paths for shorter queues (§II-C)")
}

func run(adaptive bool) (sim.Time, float64) {
	topo := topology.MustNew(topology.Config{
		Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 1,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	if !adaptive {
		prof.Routing = routing.NewMinimalOnly
	}
	net := fabric.New(topo, prof, 3)

	var hopSum, pkts int64
	net.Taps.OnPacketDelivered = func(p *fabric.Packet, _ sim.Time) {
		hopSum += int64(len(p.Path))
		pkts++
	}

	// All nodes of group 0 blast group 1.
	done, total := 0, 0
	for s := 0; s < 16; s++ {
		total++
		net.Send(topology.NodeID(s), topology.NodeID(16+s), 256*1024,
			fabric.SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	net.Eng.RunWhile(func() bool { return done < total })
	return net.Now(), float64(hopSum) / float64(pkts)
}
