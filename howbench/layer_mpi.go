package main

import (
	"howsim/internal/mpi"
	"howsim/internal/osmodel"
	"howsim/internal/sim"
)

// Only this file calls into the mpi package (and the OS cost model
// its endpoints charge).

// newWorld builds an MPI world of nodes ranks on the cluster network.
func newWorld(k *sim.Kernel, nodes int) *mpi.World {
	return mpi.NewWorld(newFatTree(k, nodes), newCPUs(k, nodes), osmodel.FullFunctionOS())
}

// isendInflight bounds a rank's outstanding sends, like the tasks'
// asynchronous-request windows.
const isendInflight = 16

// mpiIsends is the point-to-point rung: every rank Isends its share of
// n msgBytes messages to its right neighbour, at most isendInflight
// outstanding, and receives as many from its left.
func mpiIsends(nodes int, msgBytes int64) rungBody {
	return func(k *sim.Kernel, n int) {
		w := newWorld(k, nodes)
		for i := 0; i < nodes; i++ {
			share := n / nodes
			if i < n%nodes {
				share++
			}
			ep, dst := w.Rank(i), (i+1)%nodes
			spawn(k, "isend", func(p *sim.Proc) {
				var window []*mpi.Handle
				for j := 0; j < share; j++ {
					if len(window) == isendInflight {
						window[0].Wait(p)
						window = window[1:]
					}
					window = append(window, ep.Isend(p, dst, 0, msgBytes, nil))
				}
				for _, h := range window {
					h.Wait(p)
				}
			})
			recv := w.Rank(dst)
			spawn(k, "recv", func(p *sim.Proc) {
				for j := 0; j < share; j++ {
					recv.Recv(p, i, 0)
				}
			})
		}
	}
}

// mpiAllReduces is the collective rung: every rank of a nodes-rank
// group takes part in n all-reduce sums.
func mpiAllReduces(nodes int) rungBody {
	return func(k *sim.Kernel, n int) {
		w := newWorld(k, nodes)
		ranks := make([]int, nodes)
		for i := range ranks {
			ranks[i] = i
		}
		g := w.NewGroup("all", ranks)
		for i := 0; i < nodes; i++ {
			spawn(k, "reduce", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					g.AllReduceSum(p, i, 1)
				}
			})
		}
	}
}
