package sim

import (
	"runtime"
	"testing"
)

// drainGoroutines checks the goroutine count is back to at most base:
// worker coroutines exit before Close and Shutdown return.
func drainGoroutines(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked: %d live, want <= %d", n, base)
	}
}

// TestShutdownFreesParkedProcs parks processes on every flavor of wait —
// a mailbox, a resource, a timer, and never-started — abandons the run
// mid-flight, and checks Shutdown unwinds all of them: no parked procs
// in the deadlock report, blocked count zero, and every worker goroutine
// gone.
func TestShutdownFreesParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	mb := NewMailbox(k, "stuck-box", 1)
	res := NewResource(k, "stuck-res", 1)
	k.Spawn("holder", func(p *Proc) {
		res.Acquire(p, 1)
		p.Delay(Second) // holds the resource for the whole run
	})
	k.Spawn("mailbox-waiter", func(p *Proc) {
		mb.Get(p) // nothing ever sends
	})
	k.Spawn("resource-waiter", func(p *Proc) {
		res.Acquire(p, 1) // held until t=1s
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Delay(10 * Second)
	})
	// Run a bounded slice, then abandon the simulation mid-flight.
	k.RunUntil(100 * Millisecond)
	if k.Blocked() == 0 {
		t.Fatal("test setup: expected parked processes mid-run")
	}
	k.Spawn("never-started", func(p *Proc) {
		p.Delay(Second)
	})
	k.Shutdown()
	if k.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after Shutdown, want 0", k.Blocked())
	}
	if rep := k.DeadlockReport(); rep != "" {
		t.Fatalf("DeadlockReport after Shutdown:\n%s", rep)
	}
	k.Shutdown() // idempotent
	drainGoroutines(t, base)
}

// TestShutdownFinishesCallbackTasks checks bare callback-mode tasks
// parked on a primitive are marked finished and removed from the
// blocked count (they own no goroutine, so there is nothing to unwind).
func TestShutdownFinishesCallbackTasks(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox(k, "stuck-box", 1)
	tk := k.NewTask("stuck-task")
	mb.GetFunc(tk, func(v any, ok bool) {})
	k.Run()
	if k.Blocked() != 1 {
		t.Fatalf("Blocked() = %d, want 1 parked callback task", k.Blocked())
	}
	k.Shutdown()
	if k.Blocked() != 0 {
		t.Fatalf("Blocked() = %d after Shutdown, want 0", k.Blocked())
	}
	if rep := k.DeadlockReport(); rep != "" {
		t.Fatalf("DeadlockReport after Shutdown:\n%s", rep)
	}
	snap := k.Snapshot()
	if snap.LiveTasks != 0 {
		t.Fatalf("LiveTasks = %d after Shutdown, want 0", snap.LiveTasks)
	}
}

// TestShutdownAfterCleanRunIsNoop verifies a kernel whose run completed
// normally survives Shutdown (nothing to unwind beyond pool release).
func TestShutdownAfterCleanRunIsNoop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ran := false
	k.Spawn("worker", func(p *Proc) {
		p.Delay(Millisecond)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("worker did not run")
	}
	k.Shutdown()
	drainGoroutines(t, base)
}
