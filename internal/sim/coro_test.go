package sim

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// TestProcPanicReraisesFromRun checks a panic in a process body
// surfaces from Kernel.Run on the caller's goroutine with its original
// value, both before the body's first park and mid-run, and that the
// body's own stack — which the re-raised panic no longer carries — is
// written to stderr.
func TestProcPanicReraisesFromRun(t *testing.T) {
	type boom struct{ at string }
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()
	for _, at := range []string{"start", "mid-run"} {
		k := NewKernel()
		k.Spawn("bystander", func(p *Proc) { p.Delay(Second) })
		k.Spawn("panics", func(p *Proc) {
			if at == "mid-run" {
				p.Delay(Millisecond)
			}
			panic(boom{at})
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			k.Run()
			return nil
		}()
		if got != (boom{at}) {
			t.Fatalf("%s: Run recovered %v, want the body's panic value %v", at, got, boom{at})
		}
	}
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "TestProcPanicReraisesFromRun.func"); n != 2 {
		t.Fatalf("stderr names the panicking body in %d stacks, want 2:\n%s", n, out)
	}
}

// TestProcFailNowEndsTest runs itself in a child test binary whose
// process body calls t.FailNow (runtime.Goexit on the body's
// coroutine): the child test must fail cleanly — a reported failure,
// not a panic or a hang — and Kernel.Run must not return.
func TestProcFailNowEndsTest(t *testing.T) {
	if os.Getenv("HOWSIM_SIM_FAILNOW_CHILD") == "1" {
		k := NewKernel()
		k.Spawn("fails", func(p *Proc) {
			p.Delay(Millisecond)
			t.FailNow()
		})
		k.Run()
		t.Log("continued past FailNow")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcFailNowEndsTest$", "-test.v", "-test.timeout=30s")
	cmd.Env = append(os.Environ(), "HOWSIM_SIM_FAILNOW_CHILD=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("child exit: %v, want status 1\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "--- FAIL: TestProcFailNowEndsTest") ||
		strings.Contains(s, "panic") || strings.Contains(s, "continued past FailNow") {
		t.Fatalf("child did not fail cleanly at FailNow:\n%s", s)
	}
}

// TestCloseAndShutdownReleaseCoroutines checks worker coroutines exit
// synchronously: Close releases the pooled (finished) workers, Shutdown
// the ones parked mid-body, and the goroutine count is back at its
// baseline the moment each returns.
func TestCloseAndShutdownReleaseCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	mb := NewMailbox(k, "never", 1)
	for i := 0; i < 5; i++ {
		k.Spawn("finishes", func(p *Proc) { p.Delay(Millisecond) })
	}
	for i := 0; i < 3; i++ {
		k.Spawn("parks", func(p *Proc) { mb.Get(p) })
	}
	k.Run()
	if n := runtime.NumGoroutine(); n != base+8 {
		t.Fatalf("%d goroutines after the run, want %d (8 workers)", n, base+8)
	}
	k.Close()
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("%d goroutines after Close, want %d (3 parked)", n, base+3)
	}
	k.Shutdown()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Shutdown, want %d", n, base)
	}
}

// TestProcActivatedFromAnotherGoroutine spawns processes on one
// goroutine and drives the kernel from others, alternating between
// them while the processes stay parked across the switch — the pattern
// of sharded runs, where the hub goroutine spawns and leaf goroutines
// resume.
func TestProcActivatedFromAnotherGoroutine(t *testing.T) {
	k := NewKernel()
	var trace []Time
	for i := 0; i < 3; i++ {
		k.Spawn("ticker", func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Delay(Second)
				trace = append(trace, k.Now())
			}
		})
	}
	for slice := Time(1); slice <= 4; slice++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			k.RunUntil(slice * Second)
		}()
		<-done
	}
	k.Run()
	if len(trace) != 12 {
		t.Fatalf("got %d wake-ups, want 12: %v", len(trace), trace)
	}
	for i, at := range trace {
		if want := Time(i/3+1) * Second; at != want {
			t.Fatalf("wake-up %d at %v, want %v", i, at, want)
		}
	}
	k.Close()
}
