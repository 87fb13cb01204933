// Traffic-class study (Figs. 13/14 in miniature): a latency-critical
// 8-byte Allreduce job shares a bandwidth-tapered system with a bulk
// 256 KiB Alltoall job — first in the same traffic class, then with the
// Allreduce in a high-priority class of its own. QoS keeps the collective
// fast regardless of the bulk traffic.
package main

import (
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/results"
)

func main() {
	opt := harness.Options{Nodes: 24, Seed: 3}
	r, err := harness.Lookup("fig13").Run(opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(results.TextString(r))
	steady := r.Table("steady-state")
	impact := steady.Col("impact")
	fmt.Printf("protection factor: %.1fx\n", steady.Rows[0][impact].Num/steady.Rows[1][impact].Num)

	fmt.Println("\nminimum-bandwidth guarantees (Fig. 14):")
	b, err := harness.Lookup("fig14").Run(opt)
	if err != nil {
		log.Fatal(err)
	}
	shares := b.Table("overlap-share")
	j1, j2 := shares.Col("job1_share"), shares.Col("job2_share")
	same, sep := shares.Rows[0], shares.Rows[1]
	fmt.Printf("  same TC:      %.0f%% / %.0f%% while both jobs run\n", same[j1].Num*100, same[j2].Num*100)
	fmt.Printf("  separate TCs: %.0f%% / %.0f%% (configured min 80%% / min 10%% + spare)\n",
		sep[j1].Num*100, sep[j2].Num*100)
}
