package service

import (
	"context"
	"errors"
	"net/http"
	"slices"

	"chopper"
	"chopper/api"
	"chopper/internal/plan/verify"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

// buildApp resolves a built-in workload and applies the request's shrink and
// input-size overrides.
func (s *Server) buildApp(workload string, inputBytes int64, shrink int) (*chopper.BuiltinApp, int64, error) {
	app, err := chopper.Builtin(workload)
	if err != nil {
		return nil, 0, httpErrf(http.StatusNotFound, "service: unknown workload %q", workload)
	}
	if shrink <= 0 {
		shrink = s.cfg.Shrink
	}
	app.Shrink(shrink)
	bytes := app.InputBytes()
	if inputBytes > 0 {
		bytes = inputBytes
		app.SetInputBytes(bytes)
	}
	return app, bytes, nil
}

// checkSizes refuses a negative input size or shrink factor, and a shrink
// factor (the server's default when none is given) that leaves the
// workload a table without rows. An unknown workload is left to
// buildApp's 404.
func (s *Server) checkSizes(workload string, inputBytes int64, shrink int) error {
	if inputBytes < 0 || shrink < 0 {
		return httpErrf(http.StatusBadRequest, "service: negative inputBytes %d or shrink %d", inputBytes, shrink)
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil
	}
	if shrink == 0 {
		shrink = s.cfg.Shrink
	}
	if workloads.Shrink(w, shrink); workloads.Empty(w) {
		return httpErrf(http.StatusBadRequest, "service: shrink %d leaves %s without rows", shrink, workload)
	}
	return nil
}

// runStatus is the status of a run that failed with err: 422 when the
// plan verifier refused the plan the request asks for — an input too large
// for the executors' memory at the run's partition counts — or when the
// shrunk input is too small for the workload to compute its result, else
// fallback.
func runStatus(err error, fallback int) int {
	if errors.Is(err, verify.ErrPlan) || errors.Is(err, workloads.ErrInputTooSmall) {
		return http.StatusUnprocessableEntity
	}
	return fallback
}

// checkTrain refuses a train request whose plan no run can honour in
// bounded work: more than api.MaxPlanEntries entries in a list, a size
// fraction outside (0, 1] (NaN and ±Inf included), or a partition count
// outside [1, s.maxPartitions] — a count the plan verifier would refuse
// once the job ran.
func (s *Server) checkTrain(req api.TrainRequest) error {
	if err := s.checkSizes(req.Workload, req.InputBytes, req.Shrink); err != nil {
		return err
	}
	if len(req.SizeFractions) > api.MaxPlanEntries || len(req.Partitions) > api.MaxPlanEntries {
		return httpErrf(http.StatusBadRequest, "service: %d size fractions and %d partition counts; at most %d each",
			len(req.SizeFractions), len(req.Partitions), api.MaxPlanEntries)
	}
	for _, f := range req.SizeFractions {
		if !(f > 0 && f <= 1) {
			return httpErrf(http.StatusBadRequest, "service: size fraction %v outside (0, 1]", f)
		}
	}
	for _, n := range req.Partitions {
		if n < 1 || n > s.maxPartitions {
			return httpErrf(http.StatusBadRequest, "service: partition count %d outside [1, %d]", n, s.maxPartitions)
		}
	}
	return nil
}

// schemeEntries converts a generated configuration to wire form.
func schemeEntries(cf *chopper.ConfigFile) []api.SchemeEntry {
	out := make([]api.SchemeEntry, 0, len(cf.Entries))
	for _, e := range cf.Entries {
		out = append(out, api.SchemeEntry{
			Signature:         e.Signature,
			Scheme:            string(e.Scheme),
			NumPartitions:     e.NumPartitions,
			InsertRepartition: e.InsertRepartition,
		})
	}
	return out
}

// runSubmit executes one workload job on a worker: acquire a pooled
// session (tuned or vanilla), run the pipeline, and — unless the request
// opts out — fold the observed stage statistics back into the shared DB
// (which also journals them through the store observer).
func (s *Server) runSubmit(ctx context.Context, req api.SubmitRequest) (*api.SubmitResponse, error) {
	app, bytes, err := s.buildApp(req.Workload, req.InputBytes, req.Shrink)
	if err != nil {
		return nil, err
	}
	resp := &api.SubmitResponse{Workload: req.Workload, Mode: "spark", InputBytes: bytes}
	var extra []chopper.Option
	if req.Tuned {
		a, err := s.answer(s.plans[req.Workload], bytes)
		if err != nil {
			return nil, err
		}
		extra = append(extra, chopper.WithTuning(a.cf))
		resp.Mode = "chopper"
		resp.Schemes = a.resp.Schemes
	}
	if err := ctx.Err(); err != nil {
		return nil, httpErrf(http.StatusGatewayTimeout, "service: job canceled before run: %v", err)
	}
	sess := s.sessions.Acquire(extra...)
	defer s.sessions.Release(sess)
	if err := app.Run(sess, bytes); err != nil {
		return nil, httpErrf(runStatus(err, http.StatusInternalServerError), "service: %s run failed: %v", req.Workload, err)
	}
	if !req.NoRecord {
		(&chopper.Tuner{DB: s.db}).Observe(sess, app, bytes)
		resp.Recorded = true
	}
	resp.SimSeconds = sess.Elapsed()
	resp.Checksum = app.LastResult["checksum"]
	for _, st := range sess.Stages() {
		resp.Stages = append(resp.Stages, api.StageResult{
			ID:           st.ID,
			Name:         st.Name,
			Signature:    st.Signature,
			Partitioner:  st.Partitioner,
			Tasks:        st.NumTasks,
			InputBytes:   st.InputBytes,
			ShuffleRead:  st.ShuffleRead,
			ShuffleWrite: st.ShuffleWrite,
			Seconds:      st.Duration(),
		})
	}
	return resp, nil
}

// runTrain executes incremental profiling on a worker: the trial grid runs
// under the request context (cancellation stops between trials, keeping
// completed runs), and every run folds into the shared DB. The trials run
// one at a time: the worker pool already keeps the cores busy with whole
// jobs, and each trial in flight holds a full engine until its harvest.
func (s *Server) runTrain(ctx context.Context, req api.TrainRequest) (*api.TrainResponse, error) {
	app, _, err := s.buildApp(req.Workload, req.InputBytes, req.Shrink)
	if err != nil {
		return nil, err
	}
	plan := chopper.DefaultTrialPlan()
	if len(req.SizeFractions) > 0 {
		plan.SizeFractions = req.SizeFractions
	}
	if len(req.Partitions) > 0 {
		plan.Partitions = req.Partitions
	}
	if req.Range != nil {
		plan.Range = *req.Range
	}
	opts := append(slices.Clip(s.cfg.SessionOptions), func(c *session.Config) { c.GridWidth = 1 })
	tuner := &chopper.Tuner{DB: s.db, Plan: plan, SessionOptions: opts}
	before := s.db.RunCount(req.Workload)
	if err := tuner.ProfileContext(ctx, app); err != nil {
		return nil, httpErrf(runStatus(err, http.StatusGatewayTimeout), "service: training %s stopped: %v", req.Workload, err)
	}
	return &api.TrainResponse{
		Workload:     req.Workload,
		Runs:         s.db.RunCount(req.Workload) - before,
		TotalRuns:    s.db.RunCount(req.Workload),
		TotalSamples: s.db.SampleCount(req.Workload),
	}, nil
}

// explain renders the optimizer's per-stage reasoning over the workload's
// plan entry (the report itself is not memoized).
func (s *Server) explain(slot *planSlot, inputBytes int64) (string, error) {
	ex, err := s.entry(slot).opt.Explain(slot.name, float64(inputBytes))
	if err != nil {
		return "", httpErrf(http.StatusConflict, "service: workload %q not trained: %v", slot.name, err)
	}
	return ex.String(), nil
}
