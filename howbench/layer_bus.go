package main

import (
	"howsim/internal/bus"
	"howsim/internal/sim"
)

// Only this file calls into the bus package.

// busTransfers is the bus rung: procs processes share one interconnect
// and make n transfers of xferBytes in all. xio selects the SMP's XIO
// bus, otherwise the Active Disk farm's dual FC-AL loop.
func busTransfers(xio bool, procs int, xferBytes int64) rungBody {
	return func(k *sim.Kernel, n int) {
		var b *bus.Bus
		if xio {
			b = bus.NewXIO(k, "xio")
		} else {
			b = bus.NewFCAL(k, "fcal", 2, 100e6)
		}
		for i := 0; i < procs; i++ {
			share := n / procs
			if i < n%procs {
				share++
			}
			spawn(k, "xfer", func(p *sim.Proc) {
				for j := 0; j < share; j++ {
					b.Transfer(p, xferBytes)
				}
			})
		}
	}
}
