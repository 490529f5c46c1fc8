package main

import (
	"encoding/json"

	"howsim/internal/runconfig"
)

// spec is a normalized op: the program's resolved runconfig.Spec plus
// the fields the benchmark reads off it. Only this file builds or
// inspects runconfig values.
type spec struct {
	rc        *runconfig.Spec
	canonical string
	key       string
	machine   string
	task      string
	arch      string
	disks     int
	datasetMB int64
	breakdown bool
	ringSpans int
	wire      []byte // the JSON body howsimd receives for this op
}

// normalize turns an op into the request the program sees and
// resolves it through runconfig.Request.Normalize.
func normalize(o op) (*spec, error) {
	req := runconfig.Request{
		Task:      o.Task,
		Arch:      o.Arch,
		Disks:     o.Disks,
		Scale:     o.Scale,
		Faults:    o.Faults,
		Breakdown: o.Breakdown,
	}
	sp, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	wire, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &spec{
		rc:        sp,
		canonical: sp.Canonical(),
		key:       sp.Key(),
		machine:   sp.Config.Name(),
		task:      sp.Req.Task,
		arch:      sp.Req.Arch,
		disks:     sp.Req.Disks,
		datasetMB: sp.Dataset.TotalBytes >> 20,
		breakdown: sp.Req.Breakdown,
		ringSpans: sp.Req.RingSpans,
		wire:      wire,
	}, nil
}

// normalizeAll normalizes a list of ops in order.
func normalizeAll(ops []op) ([]*spec, error) {
	out := make([]*spec, len(ops))
	for i, o := range ops {
		s, err := normalize(o)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
