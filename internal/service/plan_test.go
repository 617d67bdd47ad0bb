package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chopper/api"
	"chopper/internal/core"
	"chopper/internal/workloads"
)

// trainedServer returns an in-memory daemon (built, never served) whose DB
// holds smallGrid's runs for each named workload.
func trainedServer(t *testing.T, names ...string) *Server {
	t.Helper()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := srv.runTrain(context.Background(), smallGrid(name)); err != nil {
			t.Fatalf("train %s: %v", name, err)
		}
	}
	return srv
}

// served is the recommend body the daemon's handler answers with.
func served(t *testing.T, srv *Server, workload string, inputBytes int64) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/recommend?workload=%s&inputBytes=%d", workload, inputBytes), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("recommend %s/%d: status %d: %s", workload, inputBytes, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// fromScratch is the recommend body the pre-memo read path produced: clone
// the workload, build a fresh optimizer, refit, optimize, count.
func fromScratch(t *testing.T, srv *Server, workload string, inputBytes int64) string {
	t.Helper()
	snap := srv.db.CloneWorkload(workload)
	cf, err := core.NewOptimizer(snap).GenerateConfig(workload, float64(inputBytes))
	if err != nil {
		t.Fatalf("from-scratch %s/%d: %v", workload, inputBytes, err)
	}
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, &api.RecommendResponse{
		Workload: workload, InputBytes: inputBytes, Schemes: schemeEntries(cf),
		Runs: snap.RunCount(workload), Samples: snap.SampleCount(workload),
	})
	return rec.Body.String()
}

// TestRecommendEqualsFromScratch: over the four built-ins and the
// benchmark's eight input sizes the memoized answer is byte-identical to a
// from-scratch one, first time and repeated; and a train or a recorded
// submit shows in the very next answer.
func TestRecommendEqualsFromScratch(t *testing.T) {
	names := []string{"sql", "kmeans", "pca", "pagerank"}
	srv := trainedServer(t, names...)
	check := func(when string) {
		t.Helper()
		for _, name := range names {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2} {
				bytes := int64(f * float64(w.DefaultInputBytes()))
				want := fromScratch(t, srv, name, bytes)
				for try := 0; try < 2; try++ {
					if got := served(t, srv, name, bytes); got != want {
						t.Fatalf("%s, %s x%v, try %d:\nserved:       %s\nfrom scratch: %s", when, name, f, try, got, want)
					}
				}
			}
		}
	}
	check("after training")
	if hits := srv.planHit.Value(); hits < 32 {
		t.Fatalf("repeated questions hit the memo %d times, want >= 32", hits)
	}

	runs := srv.db.RunCount("sql")
	if _, err := srv.runSubmit(context.Background(), api.SubmitRequest{Workload: "sql", Shrink: 24}); err != nil {
		t.Fatal(err)
	}
	a, err := srv.answer("sql", 1<<30)
	if err != nil || a.resp.Runs != runs+1 {
		t.Fatalf("recommend right after a recorded submit: %+v, %v; want %d runs", a, err, runs+1)
	}
	check("after a recorded submit")

	noRange := false
	if _, err := srv.runTrain(context.Background(), api.TrainRequest{
		Workload: "kmeans", Shrink: 24, SizeFractions: []float64{0.75}, Partitions: []int{200}, Range: &noRange,
	}); err != nil {
		t.Fatal(err)
	}
	check("after more training")
}

// TestSubmitInvalidatesOnlyItsWorkload: a recorded sql submit replaces the
// sql entry and leaves the kmeans entry — pointer and memoized answers — in
// place, which is what lets reads of unwritten workloads stay hits while
// another workload is being written (the fleet-write benchmark's shape).
func TestSubmitInvalidatesOnlyItsWorkload(t *testing.T) {
	srv := trainedServer(t, "sql", "kmeans")
	served(t, srv, "sql", 1<<30)
	served(t, srv, "kmeans", 1<<30)
	sql, kmeans := srv.plans["sql"].Load(), srv.plans["kmeans"].Load()
	rebuilds := srv.planRebuild.Value()
	if _, err := srv.runSubmit(context.Background(), api.SubmitRequest{Workload: "sql", Shrink: 24}); err != nil {
		t.Fatal(err)
	}
	hits := srv.planHit.Value()
	served(t, srv, "kmeans", 1<<30)
	if srv.plans["kmeans"].Load() != kmeans || srv.planHit.Value() != hits+1 || srv.planRebuild.Value() != rebuilds {
		t.Fatal("a recorded sql submit invalidated the kmeans entry")
	}
	served(t, srv, "sql", 1<<30)
	if now := srv.plans["sql"].Load(); now == sql || now.gen == sql.gen || srv.planRebuild.Value() != rebuilds+1 {
		t.Fatal("a recorded sql submit left the sql entry in place")
	}
}

// TestPlanEntryIsBounded: 10^4 distinct inputBytes never leave more than
// planCap answers behind, and every answer is still the from-scratch one.
func TestPlanEntryIsBounded(t *testing.T) {
	srv := trainedServer(t)
	for p := 50.0; p <= 1000; p += 50 { // one synthetic stage keeps 2x10^4 optimizer passes cheap
		srv.db.AddRun("kmeans", 1<<30, []core.StageObservation{
			{Signature: "s", Partitioner: "hash", D: 1 << 30, P: p, Texe: 60 + 2e-4*(p-400)*(p-400), Sshuffle: 1e7 + 2e3*p, IsDefault: p == 300},
		})
	}
	o := core.NewOptimizer(srv.db.CloneWorkload("kmeans"))
	for i := int64(1); i <= 10000; i++ {
		bytes := i << 20
		a, err := srv.answer("kmeans", bytes)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := o.GenerateConfig("kmeans", float64(bytes))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(a.resp.Schemes), fmt.Sprint(schemeEntries(cf)); got != want {
			t.Fatalf("inputBytes %d: served %s, from scratch %s", bytes, got, want)
		}
		if n := len(srv.plans["kmeans"].Load().answers); n > planCap {
			t.Fatalf("after %d distinct sizes the entry holds %d answers, cap %d", i, n, planCap)
		}
	}
	if srv.planMiss.Value() != 10000 || srv.planRebuild.Value() != 1 {
		t.Fatalf("10^4 distinct sizes: %d misses, %d rebuilds; want 10000 and 1", srv.planMiss.Value(), srv.planRebuild.Value())
	}
}

// TestRecommendNeverTornUnderTraining races readers against one writer. The
// writer is the only mutator, so right after its k-th AddRun it can compute
// the from-scratch body of generation k; every body a reader saw must be
// exactly the body of the generation its own run count names — schemes from
// one generation beside counts from another would match none.
func TestRecommendNeverTornUnderTraining(t *testing.T) {
	srv := trainedServer(t, "kmeans")
	const bytes = 1 << 30
	node := srv.db.Nodes("kmeans")[0]
	base := srv.db.RunCount("kmeans")
	want := map[int]string{base: fromScratch(t, srv, "kmeans", bytes)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	saw := make([]map[int]string, 4)
	for r := range saw {
		saw[r] = map[int]string{}
		wg.Add(1)
		go func(mine map[int]string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, err := srv.answer("kmeans", bytes)
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				srv.writeJSON(rec, http.StatusOK, a.resp)
				mine[a.resp.Runs] = rec.Body.String()
			}
		}(saw[r])
	}
	for k := 1; k <= 150; k++ {
		// Each run drags the stage's fitted optimum around, so consecutive
		// generations differ in schemes, not only in counts.
		p := float64(100 + 50*(k%16))
		srv.db.AddRun("kmeans", bytes, []core.StageObservation{
			{Signature: node.Signature, Partitioner: "hash", D: node.InputFraction * bytes, P: p, Texe: 1e3 / p},
			{Signature: node.Signature, Partitioner: "hash", D: node.InputFraction * bytes, P: p + 25, Texe: 1e3 / (p + 25)},
		})
		want[base+k] = fromScratch(t, srv, "kmeans", bytes)
	}
	close(stop)
	wg.Wait()

	distinct := map[string]bool{}
	for _, body := range want {
		distinct[body[strings.Index(body, `"schemes"`):strings.Index(body, `"runs"`)]] = true
	}
	if len(distinct) < 2 {
		t.Fatal("test needs the writer to move the schemes, not only the counts")
	}
	seen := 0
	for _, mine := range saw {
		for runs, body := range mine {
			seen++
			if body != want[runs] {
				t.Fatalf("torn answer at %d runs:\nserved:       %s\nfrom scratch: %s", runs, body, want[runs])
			}
		}
	}
	if seen < 8 {
		t.Fatalf("readers observed only %d generations; the race did not happen", seen)
	}
}
