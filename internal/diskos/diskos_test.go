package diskos

import (
	"testing"

	"howsim/internal/sim"
)

func TestDefaultConfigPaperBaseline(t *testing.T) {
	c := DefaultConfig(64)
	if c.DiskMemBytes != 32<<20 || c.EmbeddedHz != 200e6 {
		t.Errorf("baseline = %+v, want 32 MB / 200 MHz", c)
	}
	if c.Loops != 2 || c.LoopBytesPerSec != 100e6 {
		t.Error("baseline interconnect must be a dual 100 MB/s loop")
	}
	if !c.DirectComm {
		t.Error("baseline allows direct disk-to-disk communication")
	}
}

func TestCommBufScalesWithMemory(t *testing.T) {
	c32 := DefaultConfig(4)
	c64 := DefaultConfig(4)
	c64.DiskMemBytes = 64 << 20
	c128 := DefaultConfig(4)
	c128.DiskMemBytes = 128 << 20
	if c64.commBufBytes() != 2*c32.commBufBytes() {
		t.Errorf("64 MB commbuf = %d, want double of %d", c64.commBufBytes(), c32.commBufBytes())
	}
	if c128.commBufBytes() != 4*c32.commBufBytes() {
		t.Errorf("128 MB commbuf = %d, want quadruple of %d", c128.commBufBytes(), c32.commBufBytes())
	}
}

func TestLocalReadDoesNotTouchLoop(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	k.Spawn("disklet", func(p *sim.Proc) {
		s.Disks[0].ReadLocal(p, 0, 1<<20)
	})
	k.Run()
	if s.Loop.BytesMoved() != 0 {
		t.Errorf("local read moved %d bytes on the loop, want 0", s.Loop.BytesMoved())
	}
	if s.Disks[0].Disk.Stats().BytesRead != 1<<20 {
		t.Error("media read not recorded")
	}
}

func TestDirectSendCrossesLoopOnce(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	const bytes = 4 << 20
	k.Spawn("recv", func(p *sim.Proc) {
		var got int64
		for got < bytes {
			c, ok := s.Disks[1].Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
			s.Disks[1].Release(c.Bytes)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].Send(p, 1, bytes, "done")
	})
	k.Run()
	if s.Loop.BytesMoved() != bytes {
		t.Errorf("loop moved %d bytes, want exactly %d (one crossing)", s.Loop.BytesMoved(), bytes)
	}
	if s.FE.RelayedBytes() != 0 {
		t.Error("direct send must not touch the front-end")
	}
}

func TestRestrictedSendRelaysThroughFrontEnd(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.DirectComm = false
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	const bytes = 4 << 20
	k.Spawn("recv", func(p *sim.Proc) {
		var got int64
		for got < bytes {
			c, ok := s.Disks[1].Recv(p)
			if !ok {
				return
			}
			got += c.Bytes
			s.Disks[1].Release(c.Bytes)
		}
	})
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].Send(p, 1, bytes, nil)
	})
	k.Run()
	if s.Loop.BytesMoved() != 2*bytes {
		t.Errorf("loop moved %d bytes, want %d (two crossings)", s.Loop.BytesMoved(), 2*bytes)
	}
	if s.FE.RelayedBytes() != bytes {
		t.Errorf("front-end relayed %d bytes, want %d", s.FE.RelayedBytes(), bytes)
	}
}

func TestRestrictedSendSlowerThanDirect(t *testing.T) {
	run := func(direct bool) sim.Time {
		cfg := DefaultConfig(4)
		cfg.DirectComm = direct
		k := sim.NewKernel()
		s := NewSystem(k, cfg)
		const bytes = 32 << 20
		var done sim.Time
		for i := 0; i < 2; i++ {
			i := i
			k.Spawn("recv", func(p *sim.Proc) {
				var got int64
				for got < bytes {
					c, ok := s.Disks[2+i].Recv(p)
					if !ok {
						return
					}
					got += c.Bytes
					s.Disks[2+i].Release(c.Bytes)
				}
				if p.Now() > done {
					done = p.Now()
				}
			})
			k.Spawn("send", func(p *sim.Proc) {
				s.Disks[i].Send(p, 2+i, bytes, nil)
			})
		}
		k.Run()
		return done
	}
	direct := run(true)
	relayed := run(false)
	ratio := float64(relayed) / float64(direct)
	if ratio < 2 {
		t.Errorf("front-end relay slowdown = %.2fx, want >= 2x", ratio)
	}
}

func TestSendToFrontEnd(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].SendToFrontEnd(p, 1<<20, "result")
	})
	var got Chunk
	k.Spawn("fe", func(p *sim.Proc) {
		v, ok := s.FE.Inbox().Get(p)
		if ok {
			got = v.(Chunk)
		}
	})
	k.Run()
	if got.Bytes != 1<<20 || got.Payload.(string) != "result" || got.Src != 0 {
		t.Errorf("front-end received %+v", got)
	}
	if s.FE.ReceivedBytes() != 1<<20 {
		t.Errorf("ReceivedBytes = %d", s.FE.ReceivedBytes())
	}
}

func TestStreamBackpressure(t *testing.T) {
	// A sender to a receiver that never consumes must stall once the
	// destination's communication buffers fill.
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	s := NewSystem(k, cfg)
	sent := false
	k.Spawn("send", func(p *sim.Proc) {
		s.Disks[0].Send(p, 1, cfg.commBufBytes()*4, nil)
		sent = true
	})
	k.Run()
	if sent {
		t.Error("send of 4x buffer capacity should stall without a consumer")
	}
	if k.Blocked() == 0 {
		t.Error("sender should be parked on buffer credit")
	}
}

func TestScratchSizing(t *testing.T) {
	cfg := DefaultConfig(2)
	k := sim.NewKernel()
	s := NewSystem(k, cfg)
	want := cfg.DiskMemBytes - cfg.commBufBytes()
	if s.ScratchBytes() != want {
		t.Errorf("scratch = %d, want %d", s.ScratchBytes(), want)
	}
	// 64 MB variant has more scratch despite doubled buffers.
	cfg64 := DefaultConfig(2)
	cfg64.DiskMemBytes = 64 << 20
	s64 := NewSystem(sim.NewKernel(), cfg64)
	if s64.ScratchBytes() <= s.ScratchBytes() {
		t.Error("64 MB disks must have more scratch than 32 MB disks")
	}
}

func TestLoopSharedAcrossDisks(t *testing.T) {
	// Aggregate loop bandwidth is 200 MB/s regardless of disk count: 8
	// concurrent senders moving 25 MB each (200 MB total) take ~1s.
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(16))
	var last sim.Time
	const bytes = 25 << 20
	for i := 0; i < 8; i++ {
		i := i
		dst := 8 + i
		k.Spawn("recv", func(p *sim.Proc) {
			var got int64
			for got < bytes {
				c, ok := s.Disks[dst].Recv(p)
				if !ok {
					return
				}
				got += c.Bytes
				s.Disks[dst].Release(c.Bytes)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
		k.Spawn("send", func(p *sim.Proc) {
			s.Disks[i].Send(p, dst, bytes, nil)
		})
	}
	k.Run()
	want := sim.Time(float64(8*bytes) / 200e6 * float64(sim.Second))
	if last < want || last > want+want/4 {
		t.Errorf("8x25 MB over the loop took %v, want ~%v", last, want)
	}
}

// TestCrossInlineOnOneKernel pins the single-kernel side of the
// placement seam: Cross runs fn on the calling disklet itself, at its
// own instant, without scheduling anything — and a prebuilt fn crosses
// without allocating.
func TestCrossInlineOnOneKernel(t *testing.T) {
	k := sim.NewKernel()
	s := NewSystem(k, DefaultConfig(2))
	ad := s.Disks[1]
	if ad.Kernel() != k {
		t.Fatal("single-kernel disk is not on the system kernel")
	}
	var ran int
	var allocs float64
	ad.Spawn("disklet", func(p *sim.Proc) {
		p.Delay(3 * sim.Millisecond)
		fn := func(hp *sim.Proc) {
			ran++
			if hp != p {
				t.Errorf("Cross ran fn on %v, want the caller", hp)
			}
			if hp.Now() != 3*sim.Millisecond {
				t.Errorf("Cross ran fn at %v, want 3ms", hp.Now())
			}
			if at, ok := k.NextEventTime(); ok {
				t.Errorf("Cross scheduled an event at %v", at)
			}
		}
		ad.Cross(p, fn)
		allocs = testing.AllocsPerRun(100, func() { ad.Cross(p, fn) })
	})
	k.Run()
	if ran != 102 {
		t.Errorf("fn ran %d times, want 102", ran)
	}
	if allocs != 0 {
		t.Errorf("Cross allocated %v times per call, want 0", allocs)
	}
}

// TestCrossShardedRunsOnHub is the sharded side: the disk lives on its
// shard's kernel, and Cross runs fn on a hub process at the caller's
// virtual instant.
func TestCrossShardedRunsOnHub(t *testing.T) {
	g := sim.NewShardGroup(2)
	defer g.Close()
	s := NewSystemSharded(g, DefaultConfig(2))
	ad := s.Disks[1]
	if ad.Kernel() != g.Shard(1).Kernel() {
		t.Fatal("sharded disk 1 is not on shard 1's kernel")
	}
	var onHub bool
	var at sim.Time
	ad.Spawn("disklet", func(p *sim.Proc) {
		p.Delay(3 * sim.Millisecond)
		ad.Cross(p, func(hp *sim.Proc) {
			onHub = hp != p
			at = hp.Now()
		})
	})
	g.Run()
	if !onHub || at != 3*sim.Millisecond {
		t.Errorf("Cross ran fn on the hub = %v at %v, want true at 3ms", onHub, at)
	}
}
