package main

import (
	"howsim/internal/netsim"
	"howsim/internal/sim"
)

// Only this file calls into the netsim package.

// newFatTree builds the cluster's switched network for nodes hosts.
func newFatTree(k *sim.Kernel, nodes int) *netsim.Network {
	net := netsim.New(k, 0)
	net.SetTopology(netsim.NewFatTree(net, nodes, netsim.DefaultFatTreeConfig()))
	return net
}

// netMessages is the netsim rung: on a nodes-host fat tree every node
// sends its share of n messages of msgBytes to its right neighbour,
// and every node drains its inbox.
func netMessages(nodes int, msgBytes int64) rungBody {
	return func(k *sim.Kernel, n int) {
		net := newFatTree(k, nodes)
		for i := 0; i < nodes; i++ {
			share := n / nodes
			if i < n%nodes {
				share++
			}
			dst := (i + 1) % nodes
			spawn(k, "send", func(p *sim.Proc) {
				for j := 0; j < share; j++ {
					net.Send(p, i, dst, 0, msgBytes, nil)
				}
			})
			inbox := net.Inbox(dst)
			spawn(k, "recv", func(p *sim.Proc) {
				for j := 0; j < share; j++ {
					inbox.Get(p)
				}
			})
		}
	}
}
