package main

import (
	"howsim/internal/diskos"
	"howsim/internal/sim"
)

// Only this file calls into the diskos package.

// diskosSends is the disk-to-disk stream rung: on a disks-drive Active
// Disk farm, drive 0 sends n chunk-sized messages to drive 1, whose
// disklet receives and releases each one.
func diskosSends(disks int) rungBody {
	return func(k *sim.Kernel, n int) {
		s := buildActive(k, disks)
		src, dst := s.Disks[0], s.Disks[1]
		chunk := s.ChunkBytes()
		spawn(k, "send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				src.Send(p, 1, chunk, nil)
			}
		})
		spawn(k, "recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c, ok := dst.Recv(p)
				if !ok {
					return
				}
				dst.Release(c.Bytes)
			}
		})
	}
}

// diskosChunks is the disklet stream rung: drive 0 runs a filtering
// disklet over n chunks of its own media, emitting 1% of the input to
// the front-end, which drains it.
func diskosChunks(disks int) rungBody {
	return func(k *sim.Kernel, n int) {
		s := buildActive(k, disks)
		chunk := s.ChunkBytes()
		d := diskos.Disklet{
			Name:         "filter",
			ScratchBytes: 1 << 20,
			Process: func(b int64) (int64, int64) {
				return b / 100, b / 64 * 60
			},
		}
		spawn(k, "disklet", func(p *sim.Proc) {
			s.Disks[0].RunDisklet(p, d, diskos.Region{Length: int64(n) * chunk}, diskos.Sink{ToFrontEnd: true})
			s.FE.Inbox().Close()
		})
		spawn(k, "fe", func(p *sim.Proc) {
			for {
				if _, ok := s.FE.Inbox().Get(p); !ok {
					return
				}
			}
		})
	}
}
