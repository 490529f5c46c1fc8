// Fixture for shardsafe rules B and C: disklets reach hub-owned state
// only through ActiveDisk.Cross, and crossing literals never drive
// leaf-owned mechanics.
package ssfx

import (
	"ssfx/diskos"
	"ssfx/sim"
)

func leafBody(ad *diskos.ActiveDisk, wg *sim.WaitGroup, bar *sim.Barrier, mu *sim.Mutex) {
	ad.Spawn("disklet", func(p *sim.Proc) {
		ad.ReadLocal(p, 0, 1) // ok: leaf-owned, leaf context
		ad.Compute(p, 10)     // ok
		mu.Lock(p)            // ok: sim.Mutex is kernel-bound, may be leaf-local
		mu.Unlock()
		ad.Send(p, 1, diskos.Chunk{}) // want `ActiveDisk\.Send touches hub-owned state from a leaf disklet`
		wg.Done()                     // want `WaitGroup\.Done touches hub-owned state from a leaf disklet`
		bar.Wait(p)                   // want `Barrier\.Wait touches hub-owned state from a leaf disklet`
		ad.Cross(p, func(hp *sim.Proc) {
			ad.SendToFrontEnd(hp, diskos.Chunk{}) // ok: hub context inside Cross
			wg.Done()                             // ok
			bar.Wait(hp)                          // ok
			ad.WriteLocal(hp, 0, 1)               // want `ActiveDisk\.WriteLocal runs a leaf-owned operation from an ActiveDisk\.Cross literal`
		})
		ad.WriteLocal(p, 0, 1) // ok: back in leaf context
	})
}

// Crossing closures built once per disklet and passed by name are hub
// context too; the same operations just outside them are not.
func hoisted(ad *diskos.ActiveDisk, wg *sim.WaitGroup) {
	ad.Spawn("part", func(p *sim.Proc) {
		var c diskos.Chunk
		var ok bool
		send := func(hp *sim.Proc) { ad.Send(hp, 1, c) } // ok: crossing literal
		recv := func(hp *sim.Proc) {
			c, ok = ad.Recv(hp)    // ok
			ad.ReadLocal(hp, 0, 1) // want `ActiveDisk\.ReadLocal runs a leaf-owned operation from an ActiveDisk\.Cross literal`
		}
		for i := 0; i < 4 && ok; i++ {
			ad.Cross(p, recv)
			ad.Cross(p, send)
			ad.Send(p, 2, c) // want `ActiveDisk\.Send touches hub-owned state from a leaf disklet`
		}
		wg.Done()                                  // want `WaitGroup\.Done touches hub-owned state from a leaf disklet`
		ad.Cross(p, func(*sim.Proc) { wg.Done() }) // ok
	})
}

// A crossing closure called directly runs in leaf context, where its
// hub touches are findings.
func calledDirectly(ad *diskos.ActiveDisk) {
	ad.Spawn("d", func(p *sim.Proc) {
		send := func(hp *sim.Proc) {
			ad.Send(hp, 1, diskos.Chunk{}) // want `ActiveDisk\.Send touches hub-owned state from a leaf disklet`
		}
		ad.Cross(p, send)
		send(p)
	})
}

// A crossing closure defined outside the disklet body is still checked
// in hub context.
func outerCross(ad *diskos.ActiveDisk) {
	flush := func(hp *sim.Proc) {
		ad.Compute(hp, 1) // want `ActiveDisk\.Compute runs a leaf-owned operation from an ActiveDisk\.Cross literal`
	}
	ad.Spawn("scan", func(p *sim.Proc) {
		ad.Cross(p, flush)
	})
}

// Locally defined closures called from leaf context are followed.
func closureFollow(ad *diskos.ActiveDisk, wg *sim.WaitGroup) {
	absorb := func(p *sim.Proc) {
		ad.WriteLocal(p, 0, 1) // ok
		wg.Done()              // want `WaitGroup\.Done touches hub-owned state from a leaf disklet`
		ad.Cross(p, func(hp *sim.Proc) {
			wg.Done() // ok: crossing
		})
	}
	ad.Spawn("d", func(p *sim.Proc) {
		absorb(p)
	})
}

// Hub-side coordinators spawn on the hub kernel: none of this is leaf
// context.
func hubSide(g *sim.ShardGroup, ad *diskos.ActiveDisk, wg *sim.WaitGroup, done *sim.Signal) {
	g.Hub().Spawn("coord", func(p *sim.Proc) {
		wg.Wait(p)      // ok: hub context
		ad.CloseInbox() // ok
		done.Fire()     // ok
	})
}

// Reviewed exemption.
func allowedLeaf(ad *diskos.ActiveDisk) {
	ad.Spawn("d", func(p *sim.Proc) {
		ad.Release(1) //howsim:allow shardsafe -- releasing a credit the hub never observes mid-run
	})
}
