package main

import (
	"howsim/internal/arch"
	"howsim/internal/diskos"
	"howsim/internal/sim"
)

// Only this file calls into the arch package.

// buildActive builds a disks-drive Active Disk farm on k.
func buildActive(k *sim.Kernel, disks int) *diskos.System {
	return arch.ActiveDisks(disks).BuildActive(k)
}

// buildMachine builds the named architecture at disks on a fresh
// kernel: the per-run set-up cost every simulation pays.
func buildMachine(archName string, disks int) {
	withKernel(func(k *sim.Kernel) {
		switch archName {
		case "active":
			arch.ActiveDisks(disks).BuildActive(k)
		case "cluster":
			arch.Cluster(disks).BuildCluster(k)
		case "smp":
			arch.SMP(disks).BuildSMP(k)
		}
	})
}
