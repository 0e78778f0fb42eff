package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"react/internal/explore"
	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/sim"
)

// This file is the service face of the design-space exploration subsystem
// (internal/explore): POST /explorations runs a declarative explore.Space
// asynchronously, with every probed point attached to the shared
// content-addressed cell cache. Explorations therefore dedupe against each
// other, against sweeps, and against plain runs — a bisection submitted
// after a covering grid touches only cached addresses and performs zero
// new simulations. GET serves partial per-cell results while the strategy
// is still probing; the assembled result (points, bests, frontiers)
// appears when it drains.

// SubmitExplore resolves and launches an exploration, returning its
// submission view. It is the Go-level core of POST /explorations; a space
// that fails to resolve returns the error synchronously and nothing is
// tracked.
func (s *Server) SubmitExplore(sp *explore.Space) (*ExploreStatus, error) {
	return s.submitExplore(sp, obs.SpanContext{})
}

// submitExplore is SubmitExplore with the submitter's span context.
func (s *Server) submitExplore(sp *explore.Space, parent obs.SpanContext) (*ExploreStatus, error) {
	plan, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	s.explorations.Add(1)

	s.mu.Lock()
	v := s.newViewLocked("exploration", "x", plan.Base, scenario.RunOptions{}, parent)
	v.plan = plan
	v.seeds = plan.Seeds
	vctx, cancel := context.WithCancel(s.ctx)
	v.vcancel = cancel
	s.views[v.id] = v
	s.mu.Unlock()

	s.jobs.Add(1)
	go func() {
		defer s.jobs.Done()
		defer cancel()
		res, err := plan.Run(vctx, s.exploreEvaluator(v, vctx))
		s.mu.Lock()
		v.expResult, v.expErr = res, err
		s.finalizeLocked(v)
		s.mu.Unlock()
	}()
	return s.exploreStatus(v), nil
}

// exploreEvaluator adapts the shared cell cache into the exploration
// engine's batch evaluator: each probed cell is attached exactly like a
// run or sweep cell — cached, coalesced with in-flight work, or freshly
// scheduled over the global semaphore — and the batch completes when every
// attached cell does.
func (s *Server) exploreEvaluator(v *view, vctx context.Context) explore.Evaluator {
	return func(ctx context.Context, cells []explore.Cell) ([]sim.Result, error) {
		s.mu.Lock()
		if v.detached || vctx.Err() != nil {
			// The view was deleted (or the server is closing): don't attach
			// cells that could never be released.
			s.mu.Unlock()
			return nil, context.Canceled
		}
		attached := make([]*cell, len(cells))
		points := map[int]bool{}
		for i, ec := range cells {
			key := cellKey{Seed: ec.Seed, DT: ec.Spec.ResolveDT(ec.Opt.DT), Buffer: ec.Spec.Buffers[0].DisplayName()}
			attached[i] = s.addCell(v, ec.Spec, 0, ec.Opt, key)
			v.points = append(v.points, ec.Point)
			points[ec.Point] = true
		}
		s.exploreCells.Add(uint64(len(cells)))
		s.explorePoints.Add(uint64(len(points)))
		s.flushPendingLocked()
		s.mu.Unlock()

		out := make([]sim.Result, len(cells))
		for i, c := range attached {
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err != "" {
				if c.err == context.Canceled.Error() {
					return nil, context.Canceled
				}
				return nil, fmt.Errorf("%s seed %d: %s", c.buffer, cells[i].Seed, c.err)
			}
			out[i] = c.res
		}
		return out, nil
	}
}

// exploreStatus snapshots an exploration view into its wire shape. Cell
// slices grow while the strategy probes, so the snapshot is taken under
// the server lock.
func (s *Server) exploreStatus(v *view) *ExploreStatus {
	s.mu.Lock()
	ncells := len(v.cells)
	cells := make([]ExploreCellStatus, ncells)
	doneBy := map[int]int{}
	for i := 0; i < ncells; i++ {
		cs := cellStatus(v.cells[i])
		cells[i] = ExploreCellStatus{
			Point:  v.points[i],
			Buffer: v.keys[i].Buffer,
			Seed:   v.keys[i].Seed,
			DT:     v.keys[i].DT,
			Done:   cs.Done,
			Error:  cs.Error,
			Result: cs.Result,
		}
		if cs.Done && cs.Error == "" {
			doneBy[v.points[i]]++
		}
	}
	res := v.expResult
	plan := v.plan
	// The status is published under both locks (finalizeLocked holds
	// Server.mu and then view.mu), so reading it here — still inside the
	// Server.mu section — keeps it consistent with the result snapshot.
	v.mu.Lock()
	st := &ExploreStatus{
		ID:             v.id,
		Scenario:       plan.Base.Name,
		Strategy:       plan.Strategy,
		TraceID:        v.tctx.TraceID.String(),
		Status:         v.status,
		Error:          v.errMsg,
		Created:        v.created,
		Progress:       progressOf(v.cells),
		Seeds:          plan.Seeds,
		TotalPoints:    len(plan.Points),
		CachedCells:    v.cachedCells,
		CoalescedCells: v.coalescedCells,
		NewCells:       v.newCells,
		Cells:          cells,
	}
	if Terminal(v.status) {
		f := v.finished
		st.Finished = &f
	}
	v.mu.Unlock()
	s.mu.Unlock()

	for _, n := range doneBy {
		if n == len(st.Seeds) {
			st.EvaluatedPoints++
		}
	}
	if st.Status == StatusDone {
		st.Result = res
	}
	return st
}

// --- HTTP handlers ---

func (s *Server) handleExploreSubmit(w http.ResponseWriter, req *http.Request) {
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	var sp explore.Space
	if err := dec.Decode(&sp); err != nil {
		writeError(w, http.StatusBadRequest, "decoding exploration space: %v", err)
		return
	}
	st, err := s.submitExplore(&sp, parentSpan(req))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeSubmitted(w, st.Status, st)
}
