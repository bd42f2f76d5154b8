package server

import (
	"fmt"
	"strings"

	"mnoc/internal/core"
	"mnoc/internal/power"
)

// Flight keys are the canonical identity of a request's computation:
// the flight group coalesces on them, and the fleet proxy
// (internal/fleet) consistent-hashes them so identical requests land
// on — and coalesce at — the same backend replica. Both sides MUST
// derive the key the same way, so the derivation lives here, on the
// request types, and applies the handler's defaulting rules itself: a
// request with Kind unset and one with Kind "comm4" are the same
// computation and must share a key.

// FlightKey returns the canonical coalescing key of a solve request.
func (r SolveRequest) FlightKey() string {
	kind := r.Kind
	if kind == "" {
		kind = core.KindComm4
	}
	return fmt.Sprintf("solve|%s|%s|%t", r.Bench, kind, r.QAP)
}

// FlightKey returns the canonical coalescing key of an evaluate
// request. The error mirrors the handler's loss-model validation: an
// unknown loss_model has no computation to coalesce on.
func (r EvaluateRequest) FlightKey() (string, error) {
	policy := r.Policy
	if policy == "" {
		policy = core.KindComm4
	}
	scale := r.Scale
	if scale == 0 {
		scale = 1
	}
	model, err := power.ParseLossModel(r.LossModel)
	if err != nil {
		return "", fmt.Errorf("server: evaluate flight key: %w", err)
	}
	key := fmt.Sprintf("evaluate|%s|%s|%t|%g", r.Bench, policy, r.QAP, scale)
	if model != power.LossAverage {
		// Default-model requests keep their historical flight key, so
		// cached/coalesced entries stay shared with older clients.
		key += "|loss=" + string(model)
	}
	return key, nil
}

// FlightKey returns the canonical coalescing key of a bench request
// (the single-id convenience field folded in, as the handler does).
func (r BenchRequest) FlightKey() string {
	ids := append([]string(nil), r.IDs...)
	if r.ID != "" {
		ids = append(ids, r.ID)
	}
	return "bench|" + strings.Join(ids, ",")
}
