package main

import (
	"context"

	"howsim/internal/probe"
	"howsim/internal/tasks"
)

// simOutput is what one simulation returns, in the benchmark's terms.
type simOutput struct {
	elapsedSeconds float64
	elapsedNS      int64
	details        map[string]float64
	faultReport    string
}

// runTask executes one normalized op through tasks.RunCtx in the
// spec's execution mode, with sink (nil for none) attached. Only this
// file calls into the tasks package.
func runTask(ctx context.Context, s *spec, sink *probe.Sink) (simOutput, error) {
	sp := s.rc
	res, err := tasks.RunCtx(ctx, sp.Config, sp.TaskID, sp.Dataset, sp.Plan, sink, sp.Mode)
	if err != nil {
		return simOutput{}, err
	}
	out := simOutput{
		elapsedSeconds: res.Elapsed.Seconds(),
		elapsedNS:      int64(res.Elapsed),
		details:        res.Details,
	}
	if res.Fault != nil {
		out.faultReport = res.Fault.Render()
	}
	return out, nil
}
