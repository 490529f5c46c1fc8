package main

import (
	"howsim/internal/sim"
	"howsim/internal/smp"
)

// Only this file calls into the smp package.

// stripeWrap bounds the stripe offsets the rung reads, well inside the
// striped capacity of the smallest machine.
const stripeWrap = 1 << 30

// smpStripeReads is the stripe rung: on a disks-way SMP every processor
// reads its share of n application requests from a stripe over all
// disks, at distinct offsets.
func smpStripeReads(disks int) rungBody {
	return func(k *sim.Kernel, n int) {
		cfg := smp.DefaultConfig(disks)
		m := smp.New(k, cfg)
		all := make([]int, disks)
		for i := range all {
			all[i] = i
		}
		stripe := m.NewStripe(all, 0)
		req := cfg.RequestBytes
		for i := 0; i < disks; i++ {
			share := n / disks
			if i < n%disks {
				share++
			}
			c := m.CPUs[i]
			spawn(k, "stripe", func(p *sim.Proc) {
				for j := 0; j < share; j++ {
					off := int64(j*disks+i) * req % stripeWrap
					stripe.Read(p, c, off, req)
				}
			})
		}
	}
}

// smpRemoteEnqueues is the remote-queue rung: one processor enqueues n
// blocks of blockBytes onto another's queue, which drains it.
func smpRemoteEnqueues(disks int, blockBytes int64) rungBody {
	return func(k *sim.Kernel, n int) {
		m := smp.New(k, smp.DefaultConfig(disks))
		q := m.NewRemoteQueue("rq", 0)
		spawn(k, "producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if err := q.Enqueue(p, blockBytes, nil); err != nil {
					panic(err) // the queue is closed only after the loop
				}
			}
			q.Close()
		})
		spawn(k, "consumer", func(p *sim.Proc) {
			for {
				if _, ok := q.Dequeue(p); !ok {
					return
				}
			}
		})
	}
}
