package disk

import (
	"errors"
	"testing"

	"howsim/internal/probe"
	"howsim/internal/sim"
)

// TestSyncIODoesNotAllocate pins that steady-state Read and Write in
// event mode reuse their requests and completion signals: once the
// kernel, the disk queue and the request free list have reached their
// high-water marks, a synchronous I/O allocates nothing.
func TestSyncIODoesNotAllocate(t *testing.T) {
	for _, write := range []bool{false, true} {
		k := sim.NewKernel()
		k.SetExecMode(sim.ModeEvent)
		d := New(k, "d0", Cheetah9LP())
		off := int64(0)
		body := func(p *sim.Proc) {
			if write {
				d.Write(p, off, 64<<10)
			} else {
				d.Read(p, off, 64<<10)
			}
			off += 64 << 10
		}
		io := func() {
			k.Spawn("io", body)
			k.Run()
		}
		for i := 0; i < 8; i++ {
			io() // warm the process pool, queues and free list
		}
		if n := testing.AllocsPerRun(100, io); n != 0 {
			t.Errorf("write=%v: %.1f allocs per synchronous I/O, want 0", write, n)
		}
	}
}

// scriptedFaults demands media retries for chosen request sequence
// numbers and injects nothing else.
type scriptedFaults map[int64]int

func (f scriptedFaults) RequestFault(seq int64) (sim.Time, int) { return 0, f[seq] }
func (scriptedFaults) CorruptionFault(int64) int                { return 0 }
func (scriptedFaults) FailureTime() (sim.Time, bool)            { return 0, false }

// TestPooledRequestCarriesNoStaleState reads once into a hard media
// error, then cleanly at another offset. The clean read reuses the
// failed read's pooled request, and must report its own outcome: no
// error, no retries, and queue/service times of its own.
func TestPooledRequestCarriesNoStaleState(t *testing.T) {
	k := sim.NewKernel()
	k.SetExecMode(sim.ModeEvent)
	sink := probe.NewSink()
	k.SetProbe(sink)
	d := New(k, "d0", Cheetah9LP())
	policy := DefaultRetryPolicy()
	d.SetFaultInjector(scriptedFaults{1: policy.MaxRetries + 1}, policy)

	var errs [2]error
	var issued sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		errs[0] = d.Read(p, 0, 64<<10)
		p.Delay(sim.Millisecond)
		issued = p.Now()
		errs[1] = d.Read(p, 512<<20, 64<<10)
	})
	k.Run()

	if !errors.Is(errs[0], ErrMediaError) {
		t.Fatalf("faulted read: err = %v, want ErrMediaError", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("clean read after a failed one: err = %v, want nil", errs[1])
	}
	if len(d.reqFree) != 1 {
		t.Fatalf("free list holds %d requests, want 1 (the clean read reuses the failed read's)", len(d.reqFree))
	}

	inst := -1
	for i := 0; i < sink.Instances(); i++ {
		if comp, name := sink.Instance(i); comp == "disk" && name == "d0" {
			inst = i
		}
	}
	if inst < 0 {
		t.Fatal("disk d0 not registered with the probe sink")
	}
	var spans []probe.Span
	sink.EachSpan(func(sp probe.Span) {
		if int(sp.Inst) == inst && sp.Kind == probe.KindService {
			spans = append(spans, sp)
		}
	})
	if len(spans) != 2 {
		t.Fatalf("recorded %d disk service spans, want 2", len(spans))
	}
	clean := spans[1]
	if clean.Start != int64(issued) {
		t.Errorf("clean read's service span starts at %d, want its issue time %d (idle disk)", clean.Start, issued)
	}
	if clean.Start < spans[0].End {
		t.Errorf("clean read's span [%d,%d] overlaps the failed read's [%d,%d]", clean.Start, clean.End, spans[0].Start, spans[0].End)
	}
	if _, count, sum := sink.Cell(inst, probe.KindRetry); count != 1 || sum != int64(policy.MaxRetries) {
		t.Errorf("retry counter = %d emissions / %d retries, want 1 / %d (the failed read only)", count, sum, policy.MaxRetries)
	}

	req := d.reqFree[0]
	if req.Err != nil || req.Retries != 0 {
		t.Errorf("clean read's request: Err = %v, Retries = %d, want nil, 0", req.Err, req.Retries)
	}
	if req.Queued != issued || int64(req.Started) != clean.Start || int64(req.Finished) != clean.End {
		t.Errorf("clean read's request times (queued %d, started %d, finished %d), want (%d, %d, %d)",
			req.Queued, req.Started, req.Finished, issued, clean.Start, clean.End)
	}
}
