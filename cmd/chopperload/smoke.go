package main

// The smoke harness: spawns a real chopperd process and walks the daemon's
// whole lifecycle, including the two durability paths — journal replay
// after SIGKILL and snapshot load after a clean SIGTERM drain. CI runs this
// as the chopperd gate (see ci.sh).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"chopper/api"
	"chopper/client"
	"chopper/internal/fleetproc"
	"chopper/internal/loadgen"
)

// step logs one smoke phase.
func step(format string, args ...any) {
	fmt.Printf("chopperload: smoke: "+format+"\n", args...)
}

// runSmoke is the CI gate sequence.
func runSmoke(ctx context.Context, binary string) error {
	if binary == "" {
		return fmt.Errorf("-smoke needs -chopperd <binary>")
	}
	dir, err := os.MkdirTemp("", "chopperd-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "profiles.db")
	const workload = "kmeans"

	step("starting chopperd (store %s)", store)
	d, err := fleetproc.Start(ctx, binary, "-addr", "127.0.0.1:0", "-store", store)
	if err != nil {
		return err
	}
	cl := client.New(d.Addr)

	// Train a small grid so recommend has observations to optimize from.
	step("training %s", workload)
	tr, err := cl.Train(ctx, api.TrainRequest{
		Workload:      workload,
		Shrink:        24,
		SizeFractions: []float64{0.5, 1.0},
		Partitions:    []int{150, 300},
	})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	step("trained: %d runs, %d samples", tr.TotalRuns, tr.TotalSamples)

	// Concurrent mixed burst: 64 clients, zero drops allowed. Submits skip
	// recording so the burst leaves the store deterministic for the
	// byte-identity checks below.
	step("burst: 128 requests at 64-way concurrency")
	res, err := loadgen.Run(ctx, loadgen.Config{
		Base:           d.Addr,
		Concurrency:    64,
		Requests:       128,
		Workload:       workload,
		Shrink:         24,
		SubmitFraction: 0.25,
		NoRecord:       true,
	})
	if err != nil {
		return fmt.Errorf("burst: %w", err)
	}
	step("burst: %s", res)
	if res.Dropped > 0 {
		return fmt.Errorf("burst dropped %d requests (first error: %s)", res.Dropped, res.FirstError)
	}

	r1, err := cl.RecommendRaw(ctx, workload, 0)
	if err != nil {
		return fmt.Errorf("recommend: %w", err)
	}
	h1, err := cl.Health(ctx)
	if err != nil {
		return err
	}
	if h1.JournalRecords == 0 {
		return fmt.Errorf("no journal records after training — durability path inert")
	}

	// Crash recovery: SIGKILL (no snapshot) and restart; the journal alone
	// must reproduce the exact recommendation.
	step("SIGKILL and restart (journal replay)")
	if err := d.Kill(); err != nil {
		return err
	}
	d, err = fleetproc.Start(ctx, binary, "-addr", "127.0.0.1:0", "-store", store)
	if err != nil {
		return fmt.Errorf("restart after kill: %w", err)
	}
	cl = client.New(d.Addr)
	r2, err := cl.RecommendRaw(ctx, workload, 0)
	if err != nil {
		return fmt.Errorf("recommend after replay: %w", err)
	}
	if !bytes.Equal(r1, r2) {
		return fmt.Errorf("recommend changed across SIGKILL restart:\nbefore: %s\nafter:  %s", r1, r2)
	}
	h2, err := cl.Health(ctx)
	if err != nil {
		return err
	}
	if h2.JournalRecords != h1.JournalRecords {
		return fmt.Errorf("journal replay count %d != pre-crash %d", h2.JournalRecords, h1.JournalRecords)
	}
	step("replay ok: %d journal records, recommend byte-identical", h2.JournalRecords)

	// The read-side surfaces over the replayed state: the plan explanation
	// and the Prometheus exposition.
	explain, err := cl.Explain(ctx, workload, 0)
	if err != nil {
		return fmt.Errorf("explain after replay: %w", err)
	}
	if explain == "" {
		return fmt.Errorf("explain after replay returned an empty body")
	}
	exposition, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics after replay: %w", err)
	}
	for _, family := range []string{"chopperd_http_requests_total", "chopperd_plan_cache_total"} {
		if !strings.Contains(exposition, family) {
			return fmt.Errorf("metrics after replay lack %s", family)
		}
	}
	step("explain ok (%d bytes), metrics expose the request and plan-cache counters", len(explain))

	// Clean drain: SIGTERM with a job in flight; the job must complete and
	// the process exit 0 with a final snapshot.
	step("SIGTERM with an in-flight job (clean drain)")
	subErr := make(chan error, 1)
	go func() {
		_, err := cl.Submit(ctx, api.SubmitRequest{Workload: workload, Shrink: 24, NoRecord: true})
		subErr <- err
	}()
	// SIGTERM only once the daemon has admitted the job (queued or on a
	// worker): a fixed sleep races the request on a slow machine, and a
	// not-yet-admitted submit would bounce off the drain with 503.
	submitDone, submitErr := false, error(nil)
	admitDeadline := time.Now().Add(30 * time.Second)
waitAdmitted:
	for {
		select {
		case submitErr = <-subErr:
			submitDone = true // finished before the drain; equally fine
			break waitAdmitted
		default:
		}
		if h, err := cl.Health(ctx); err == nil && h.QueueDepth+h.ActiveJobs > 0 {
			break
		}
		if time.Now().After(admitDeadline) {
			return fmt.Errorf("submit not admitted within 30s\n%s", d.Output())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := d.Drain(); err != nil {
		return err
	}
	if !submitDone {
		submitErr = <-subErr
	}
	if submitErr != nil {
		return fmt.Errorf("in-flight submit failed during drain: %w\n%s", submitErr, d.Output())
	}
	if fi, err := os.Stat(store); err != nil || fi.Size() == 0 {
		return fmt.Errorf("no snapshot at %s after drain (err %v)", store, err)
	}

	// Snapshot path: restart once more; state now comes from the snapshot.
	step("restart from snapshot")
	d, err = fleetproc.Start(ctx, binary, "-addr", "127.0.0.1:0", "-store", store)
	if err != nil {
		return fmt.Errorf("restart after drain: %w", err)
	}
	cl = client.New(d.Addr)
	r3, err := cl.RecommendRaw(ctx, workload, 0)
	if err != nil {
		return fmt.Errorf("recommend after snapshot restart: %w", err)
	}
	if !bytes.Equal(r1, r3) {
		return fmt.Errorf("recommend changed across drain restart:\nbefore: %s\nafter:  %s", r1, r3)
	}
	h3, err := cl.Health(ctx)
	if err != nil {
		return err
	}
	if h3.JournalRecords != 0 {
		return fmt.Errorf("journal not truncated by snapshot: %d records", h3.JournalRecords)
	}
	if err := d.Drain(); err != nil {
		return err
	}
	step("snapshot ok: recommend byte-identical, journal empty")
	return nil
}
