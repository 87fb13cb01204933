package workloads

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Microbench is one victim microbenchmark column of Fig. 9: a named
// operation run repeatedly under measurement.
type Microbench struct {
	Name string
	Size int64
	// Run performs one iteration on the job and calls done when the
	// slowest rank finishes.
	Run func(j *mpi.Job, done func())
}

// PingPongBench bounces Size bytes between ranks 0 and 1.
func PingPongBench(size int64) Microbench {
	return Microbench{
		Name: "pingpong", Size: size,
		Run: func(j *mpi.Job, done func()) {
			j.PingPong(0, j.Size()-1, size, 1, func([]sim.Time) { done() })
		},
	}
}

// AllreduceBench reduces Size bytes across the job.
func AllreduceBench(size int64) Microbench {
	return Microbench{
		Name: "allreduce", Size: size,
		Run: func(j *mpi.Job, done func()) {
			j.Allreduce(size, func(sim.Time) { done() })
		},
	}
}

// AlltoallBench exchanges Size bytes per pair.
func AlltoallBench(size int64) Microbench {
	return Microbench{
		Name: "alltoall", Size: size,
		Run: func(j *mpi.Job, done func()) {
			j.Alltoall(size, func(sim.Time) { done() })
		},
	}
}

// BarrierBench is a dissemination barrier.
func BarrierBench() Microbench {
	return Microbench{
		Name: "barrier",
		Run: func(j *mpi.Job, done func()) {
			j.Barrier(func(sim.Time) { done() })
		},
	}
}

// BroadcastBench broadcasts Size bytes from rank 0.
func BroadcastBench(size int64) Microbench {
	return Microbench{
		Name: "broadcast", Size: size,
		Run: func(j *mpi.Job, done func()) {
			j.Bcast(size, 0, func(sim.Time) { done() })
		},
	}
}

// Halo3DBench is the ember halo3d pattern: each rank exchanges Size bytes
// with its neighbors in a 3D decomposition of the job.
func Halo3DBench(size int64) Microbench {
	return Microbench{
		Name: "hal", Size: size,
		Run: func(j *mpi.Job, done func()) {
			RunHalo3D(j, size, done)
		},
	}
}

// Sweep3DBench is the ember sweep3d wavefront pattern.
func Sweep3DBench(size int64) Microbench {
	return Microbench{
		Name: "swp", Size: size,
		Run: func(j *mpi.Job, done func()) {
			RunSweep3D(j, size, done)
		},
	}
}

// IncastBench is the ember incast pattern: every rank sends Size bytes to
// rank 0 once.
func IncastBench(size int64) Microbench {
	return Microbench{
		Name: "inc", Size: size,
		Run: func(j *mpi.Job, done func()) {
			n := j.Size()
			if n == 1 {
				done()
				return
			}
			left := n - 1
			for r := 1; r < n; r++ {
				j.Send(r, 0, size, func(sim.Time) {
					left--
					if left == 0 {
						done()
					}
				})
			}
		},
	}
}

// Fig9Microbenches returns the microbenchmark victim columns of Fig. 9.
func Fig9Microbenches() []Microbench {
	var out []Microbench
	for _, s := range []int64{8, 128, 1024, 16 * 1024, 128 * 1024, 1 << 20, 4 << 20, 16 << 20} {
		out = append(out, PingPongBench(s))
	}
	for _, s := range []int64{8, 128, 1024, 16 * 1024, 128 * 1024, 1 << 20, 4 << 20} {
		out = append(out, AllreduceBench(s))
	}
	for _, s := range []int64{8, 128, 1024, 16 * 1024, 128 * 1024, 1 << 20, 4 << 20} {
		out = append(out, AlltoallBench(s))
	}
	out = append(out, BarrierBench())
	for _, s := range []int64{8, 128, 1024, 16 * 1024, 128 * 1024, 1 << 20, 4 << 20, 16 << 20} {
		out = append(out, BroadcastBench(s))
	}
	out = append(out, Halo3DBench(128), Halo3DBench(1024))
	out = append(out, Sweep3DBench(128), Sweep3DBench(512))
	for _, s := range []int64{8, 128, 1024, 16 * 1024} {
		out = append(out, IncastBench(s))
	}
	return out
}

// Label renders the column label used in the Fig. 9 heatmap.
func (m Microbench) Label() string {
	if m.Size == 0 {
		return m.Name
	}
	return fmt.Sprintf("%s/%s", m.Name, SizeLabel(m.Size))
}

// SizeLabel names a message size in the largest binary unit it reaches,
// rounded down: 8B, 32KiB, 16MiB.
func SizeLabel(s int64) string {
	switch {
	case s >= 1<<20:
		return fmt.Sprintf("%dMiB", s>>20)
	case s >= 1024:
		return fmt.Sprintf("%dKiB", s>>10)
	default:
		return fmt.Sprintf("%dB", s)
	}
}

// decompose3 factors n into three near-cubic factors px*py*pz = n.
func decompose3(n int) (int, int, int) {
	best := [3]int{1, 1, n}
	bestScore := n * n
	for px := 1; px*px*px <= n; px++ {
		if n%px != 0 {
			continue
		}
		rem := n / px
		for py := px; py*py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			score := pz - px
			if score < bestScore {
				bestScore = score
				best = [3]int{px, py, pz}
			}
		}
	}
	return best[0], best[1], best[2]
}

// RunHalo3D performs one halo exchange: each rank sendrecvs size bytes with
// its up-to-six face neighbors of the 3D decomposition.
func RunHalo3D(j *mpi.Job, size int64, done func()) {
	n := j.Size()
	px, py, pz := decompose3(n)
	coord := func(r int) (int, int, int) {
		return r % px, (r / px) % py, r / (px * py)
	}
	rank := func(x, y, z int) int { return x + y*px + z*px*py }

	// One phase: all neighbor exchanges at once (nonblocking + waitall).
	var specs []struct{ from, to int }
	for r := 0; r < n; r++ {
		x, y, z := coord(r)
		for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			nx, ny, nz := x+d[0], y+d[1], z+d[2]
			if nx < 0 || nx >= px || ny < 0 || ny >= py || nz < 0 || nz >= pz {
				continue
			}
			specs = append(specs, struct{ from, to int }{r, rank(nx, ny, nz)})
		}
	}
	if len(specs) == 0 {
		done()
		return
	}
	left := len(specs)
	for _, s := range specs {
		j.Send(s.from, s.to, size, func(sim.Time) {
			left--
			if left == 0 {
				done()
			}
		})
	}
}

// RunSweep3D performs one wavefront sweep over the 2D processor grid (the
// ember sweep3d communication skeleton): rank (i,j) receives from west and
// north, then sends to east and south; the diagonal wavefront pipelines.
func RunSweep3D(j *mpi.Job, size int64, done func()) {
	n := j.Size()
	px, py, _ := decompose3(n)
	// Use a 2D grid px x (n/px) when possible.
	if px*py != n {
		py = n / px
	}
	if px*py != n || px*py == 0 {
		px, py = 1, n
	}
	rank := func(x, y int) int { return x + y*px }
	var total int
	completed := func() {
		total--
		if total == 0 {
			done()
		}
	}
	// Phased by anti-diagonal: messages from diagonal d to d+1.
	maxDiag := px + py - 2
	if maxDiag == 0 {
		done()
		return
	}
	var phases [][]struct{ from, to int }
	for d := 0; d < maxDiag; d++ {
		var ph []struct{ from, to int }
		for x := 0; x < px; x++ {
			y := d - x
			if y < 0 || y >= py {
				continue
			}
			if x+1 < px {
				ph = append(ph, struct{ from, to int }{rank(x, y), rank(x+1, y)})
			}
			if y+1 < py {
				ph = append(ph, struct{ from, to int }{rank(x, y), rank(x, y+1)})
			}
		}
		phases = append(phases, ph)
	}
	for _, ph := range phases {
		total += len(ph)
	}
	if total == 0 {
		done()
		return
	}
	// The wavefront dependency: messages of phase d+1 are posted when the
	// sender's phase-d receives complete. Approximate by chaining phases.
	var runPhase func(d int)
	runPhase = func(d int) {
		if d >= len(phases) {
			return
		}
		left := len(phases[d])
		if left == 0 {
			runPhase(d + 1)
			return
		}
		for _, s := range phases[d] {
			j.Send(s.from, s.to, size, func(sim.Time) {
				completed()
				left--
				if left == 0 {
					runPhase(d + 1)
				}
			})
		}
	}
	runPhase(0)
}
