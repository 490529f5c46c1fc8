package main

import (
	"howsim/internal/sim"
)

// Only this file calls into the sim package: it owns the ladder's
// kernels and the kernel's own rungs.

// rungBody builds one ladder rung on a fresh kernel: it constructs the
// layer's components and spawns the processes that will call the
// layer n times once the kernel runs.
type rungBody func(k *sim.Kernel, n int)

// rungEvents is the number of kernel events a rung dispatches.
func rungEvents(body rungBody, n int) int64 {
	k := sim.NewKernel()
	k.SetExecMode(sim.ModeEvent)
	sink := newSink(1)
	k.SetProbe(sink)
	body(k, n)
	k.Run()
	k.Close()
	return schedEvents(sink)
}

// timeRung builds a rung on a bare kernel and calls measure around the
// kernel's run.
func timeRung(body rungBody, n int, measure func(run func())) {
	k := sim.NewKernel()
	k.SetExecMode(sim.ModeEvent)
	body(k, n)
	measure(func() { k.Run() })
	k.Close()
}

// withKernel calls fn with a fresh kernel and releases it afterwards.
func withKernel(fn func(k *sim.Kernel)) {
	k := sim.NewKernel()
	fn(k)
	k.Close()
}

// spawn starts a simulated process on k; rung bodies of the other
// layers use it to call their layer from process context.
func spawn(k *sim.Kernel, name string, body func(p *sim.Proc)) { k.Spawn(name, body) }

// eventChain dispatches n timer callbacks, each scheduling the next
// from a ring of 64 in-flight timers: the kernel's bare event cost.
func eventChain(k *sim.Kernel, n int) {
	const inflight = 64
	remaining := n - inflight
	fns := make([]func(), inflight)
	for i := range fns {
		d := sim.Time(i%13 + 1)
		fns[i] = func() {
			if remaining > 0 {
				remaining--
				k.After(d, fns[i])
			}
		}
	}
	for i, fn := range fns {
		k.After(sim.Time(i+1), fn)
	}
}

// parkLoop is one process parking n times on a timed delay: each park
// is a goroutine handoff to the kernel and back.
func parkLoop(k *sim.Kernel, n int) {
	k.Spawn("park", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
	})
}

// callbackPingPong bounces a message n times between two callback
// tasks over rendezvous mailboxes: the event-mode continuation path.
func callbackPingPong(k *sim.Kernel, n int) {
	ab := sim.NewMailbox(k, "ab", 0)
	ba := sim.NewMailbox(k, "ba", 0)
	ta, tb := k.NewTask("a"), k.NewTask("b")
	remaining := n
	var aStep func(v any, ok bool)
	aPutDone := func(error) { ba.GetFunc(ta, aStep) }
	aStep = func(any, bool) {
		if remaining <= 0 {
			ab.Close()
			return
		}
		remaining--
		ab.PutFunc(ta, struct{}{}, aPutDone)
	}
	var bStep func(v any, ok bool)
	bPutDone := func(error) { ab.GetFunc(tb, bStep) }
	bStep = func(_ any, ok bool) {
		if ok {
			ba.PutFunc(tb, struct{}{}, bPutDone)
		}
	}
	ab.GetFunc(tb, bStep)
	k.At(0, func() { aStep(nil, true) })
}
