package tasks

// Background replica rebuild: after the plan's permanent disk failure,
// the surviving replica streams the lost partition onto the declared
// hot spare, chunk by chunk, contending with the foreground scan for
// the replica holder's media and the FC loop. The run's elapsed time
// extends to the rebuild's completion, so a faulted run exposes the
// classic rebuild-time vs. degraded-throughput tradeoff directly in its
// figures and FaultReport (stats.RebuildStats).

import (
	"howsim/internal/diskos"
	"howsim/internal/fault"
	"howsim/internal/probe"
	"howsim/internal/sim"
	"howsim/internal/workload"
)

// rebuildState records what the background rebuild moved; faultEpilogue
// folds it into the FaultReport.
type rebuildState struct {
	ran        bool
	spare      string
	bytes      int64
	start, end sim.Time
}

// spawnRebuild starts the rebuild disklet when the plan declares a
// spare (which requires a replica and a fail clause — enforced by
// ParsePlan — and a provisioned System.Spare). The disklet sleeps until
// the failure, then copies the failed disk's partition from the replica
// region of the surviving peer onto the spare. Every chunk is a real
// simulated read, loop crossing and write, so the rebuild and the
// foreground scan slow each other down exactly as a live array would.
// A rebuild-rate plan key caps the stream at that many MB/s, trading a
// longer rebuild window for lighter foreground interference.
func spawnRebuild(s *diskos.System, ds workload.Dataset, plan *fault.Plan, rb *rebuildState) {
	d := len(s.Disks)
	if plan == nil || !plan.Spare || !plan.Replica || s.Spare == nil ||
		plan.FailDisk < 0 || plan.FailDisk >= d || d < 2 {
		return
	}
	k := s.K
	pr := k.Probe().Register("recovery", "rebuild")
	readKind := pr.KindNamed("rebuild_read")
	writeKind := pr.KindNamed("rebuild_write")
	per := perNodeBytes(ds.TotalBytes, d)
	replicaRegion := replicaRegionOf(s.Disks[0].Disk.Capacity())
	src := s.Disks[(plan.FailDisk+1)%d]
	k.Spawn("rebuild", func(p *sim.Proc) {
		if plan.FailAt > p.Now() {
			p.Delay(plan.FailAt - p.Now())
		}
		rb.ran, rb.spare, rb.start = true, s.Spare.Name(), p.Now()
		for off := int64(0); off < per; {
			n := int64(ioChunk)
			if per-off < n {
				n = alignSector(per - off)
			}
			chunkStart := p.Now()
			rs := pr.Begin(readKind, probe.Time(p.Now()))
			err := src.ReadLocal(p, replicaRegion+off, n)
			if pr.On() {
				pr.EndArg(readKind, rs, int64(p.Now()), n)
			}
			if err != nil {
				// The replica holder is gone too; nothing left to rebuild
				// from. The shortfall shows as Rebuild.Bytes < partition.
				break
			}
			s.RebuildTransfer(p, src.ID, plan.FailDisk, n)
			ws := pr.Begin(writeKind, probe.Time(p.Now()))
			s.Spare.Write(p, off, n)
			if pr.On() {
				pr.EndArg(writeKind, ws, int64(p.Now()), n)
			}
			rb.bytes += n
			off += n
			// rebuild-rate cap: if the chunk moved faster than the plan's
			// MB/s budget, idle out the remainder so the stream never
			// exceeds the cap, leaving the media and loop to the scan.
			if floor := plan.RebuildChunkTime(n); floor > 0 {
				if took := p.Now() - chunkStart; took < floor {
					p.Delay(floor - took)
				}
			}
		}
		rb.end = p.Now()
	})
}
