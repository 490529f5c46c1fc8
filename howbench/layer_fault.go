package main

import "howsim/internal/fault"

// Only this file calls into the fault package.

// parsePlan parses and re-renders a fault plan, the round trip
// runconfig makes for every faulted request.
func parsePlan(s string) error {
	p, err := fault.ParsePlan(s)
	if err != nil {
		return err
	}
	_ = p.String()
	return nil
}
