package main

import (
	"howsim/internal/cpu"
	"howsim/internal/sim"
)

// Only this file calls into the cpu package.

// newCPUs builds n cluster-node processors on k.
func newCPUs(k *sim.Kernel, n int) []*cpu.CPU {
	cpus := make([]*cpu.CPU, n)
	for i := range cpus {
		cpus[i] = cpu.New(k, "cpu", 300e6)
	}
	return cpus
}

// cpuComputes is the cpu rung: one processor retires n bursts of
// cycles each, the workload's mean compute burst.
func cpuComputes(cycles int64) rungBody {
	return func(k *sim.Kernel, n int) {
		c := cpu.New(k, "cpu0", 200e6)
		spawn(k, "compute", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.Compute(p, cycles)
			}
		})
	}
}
