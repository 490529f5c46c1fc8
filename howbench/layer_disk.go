package main

import (
	"howsim/internal/disk"
	"howsim/internal/sim"
)

// Only this file calls into the disk package.

// sectorSize is the drive's addressing unit; request sizes round to it.
const sectorSize = disk.SectorSize

// diskRequests is the disk rung: one drive serves n sequential reads of
// reqBytes, the workload's mean request size, through its serve loop.
func diskRequests(reqBytes int64) rungBody {
	return func(k *sim.Kernel, n int) {
		d := disk.New(k, "disk0", disk.Cheetah9LP())
		span := d.Capacity() / reqBytes * reqBytes
		spawn(k, "reader", func(p *sim.Proc) {
			off := int64(0)
			for i := 0; i < n; i++ {
				if err := d.Read(p, off, reqBytes); err != nil {
					panic(err) // no fault injector is installed
				}
				if off += reqBytes; off+reqBytes > span {
					off = 0
				}
			}
		})
	}
}
