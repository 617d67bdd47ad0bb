package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chopper/api"
	"chopper/internal/core"
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

// encoderWrite is how every JSON reply was written before bodies were
// rendered once: a streaming encoder straight into the response. It stays as
// the reference the rendered bytes must equal.
func encoderWrite(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// fromScratchResp is the recommend response the pre-memo read path built:
// clone the workload, build a fresh optimizer, refit, optimize, count.
func fromScratchResp(t *testing.T, srv *Server, workload string, inputBytes int64) *api.RecommendResponse {
	t.Helper()
	snap := srv.db.CloneWorkload(workload)
	cf, err := core.NewOptimizer(snap).GenerateConfig(workload, float64(inputBytes))
	if err != nil {
		t.Fatalf("from-scratch %s/%d: %v", workload, inputBytes, err)
	}
	return &api.RecommendResponse{
		Workload: workload, InputBytes: inputBytes, Schemes: schemeEntries(cf),
		Runs: snap.RunCount(workload), Samples: snap.SampleCount(workload),
	}
}

// fromScratch is fromScratchResp's body as the streaming encoder wrote it.
func fromScratch(t *testing.T, srv *Server, workload string, inputBytes int64) string {
	t.Helper()
	rec := httptest.NewRecorder()
	encoderWrite(rec, http.StatusOK, fromScratchResp(t, srv, workload, inputBytes))
	return rec.Body.String()
}

// onTheWire is a GET's reply as a client receives it over loopback: status,
// transfer encoding, every header but Date (sorted), and body — so the
// Content-Length net/http adds on its own is part of what is compared.
func onTheWire(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Header.Del("Date")
	var b strings.Builder
	fmt.Fprintf(&b, "%d %v\n", resp.StatusCode, resp.TransferEncoding)
	_ = resp.Header.Write(&b) // a strings.Builder does not fail
	b.WriteString("\n")
	b.Write(body)
	return b.String()
}

// encoderServer serves, over loopback, whatever reply was asked of it last
// through encoderWrite, and returns that reply as onTheWire sees it.
func encoderServer(t *testing.T) func(status int, v any) string {
	var (
		mu     sync.Mutex
		status int
		v      any
	)
	ref := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		st, val := status, v
		mu.Unlock()
		encoderWrite(w, st, val)
	}))
	t.Cleanup(ref.Close)
	return func(st int, val any) string {
		mu.Lock()
		status, v = st, val
		mu.Unlock()
		return onTheWire(t, ref.URL)
	}
}

// TestRecommendEqualsFromScratch: over the four built-ins, the benchmark's
// eight input sizes and inputBytes omitted, the reply a client receives —
// status, headers, body — on the miss that derives an answer and on a hit is
// the one the streaming encoder wrote for the from-scratch response; a train
// or a recorded submit shows in the very next answer; and an untrained
// workload's 409 is unchanged too.
func TestRecommendEqualsFromScratch(t *testing.T) {
	reference := encoderServer(t)

	untrained, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(untrained.Handler())
	defer front.Close()
	_, cause := core.NewOptimizer(untrained.db.CloneWorkload("kmeans")).GenerateConfig("kmeans", float64(untrained.plans["kmeans"].defaultBytes))
	if cause == nil {
		t.Fatal("an empty DB generated a configuration")
	}
	want409 := reference(http.StatusConflict, api.Error{Status: http.StatusConflict,
		Error: fmt.Sprintf("service: workload %q not trained: %v", "kmeans", cause)})
	for try := 0; try < 2; try++ {
		if got := onTheWire(t, front.URL+"/v1/recommend?workload=kmeans"); got != want409 {
			t.Fatalf("untrained, try %d:\nserved:    %s\nreference: %s", try, got, want409)
		}
	}

	names := []string{"sql", "kmeans", "pca", "pagerank"}
	srv := trainedServer(t, names...)
	daemon := httptest.NewServer(srv.Handler())
	defer daemon.Close()
	check := func(when string) {
		t.Helper()
		for _, name := range names {
			slot := srv.plans[name]
			for _, f := range []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2} {
				query, bytes := "workload="+name, slot.defaultBytes
				if f > 0 {
					bytes = int64(f * float64(slot.defaultBytes))
					query += fmt.Sprintf("&inputBytes=%d", bytes)
				}
				want := reference(http.StatusOK, fromScratchResp(t, srv, name, bytes))
				for try := 0; try < 2; try++ {
					counter, kind := srv.planHit, "hit"
					if e := slot.entry.Load(); e == nil || e.gen != srv.db.Generation(name) || e.answers[bytes] == nil {
						counter, kind = srv.planMiss, "miss"
					}
					before := counter.Value()
					got := onTheWire(t, daemon.URL+"/v1/recommend?"+query)
					if counter.Value() != before+1 {
						t.Fatalf("%s, %s x%v, try %d: not a %s", when, name, f, try, kind)
					}
					if got != want {
						t.Fatalf("%s, %s x%v, %s:\nserved:    %s\nreference: %s", when, name, f, kind, got, want)
					}
				}
			}
		}
	}
	check("after training")

	for _, name := range names {
		runs := srv.db.RunCount(name)
		if _, err := srv.runSubmit(context.Background(), api.SubmitRequest{Workload: name, Shrink: 24}); err != nil {
			t.Fatal(err)
		}
		a, err := srv.answer(srv.plans[name], 1<<30)
		if err != nil || a.resp.Runs != runs+1 {
			t.Fatalf("%s recommend right after a recorded submit: %+v, %v; want %d runs", name, a, err, runs+1)
		}
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
	sql, kmeans := srv.plans["sql"].entry.Load(), srv.plans["kmeans"].entry.Load()
	rebuilds := srv.planRebuild.Value()
	if _, err := srv.runSubmit(context.Background(), api.SubmitRequest{Workload: "sql", Shrink: 24}); err != nil {
		t.Fatal(err)
	}
	hits := srv.planHit.Value()
	served(t, srv, "kmeans", 1<<30)
	if srv.plans["kmeans"].entry.Load() != kmeans || srv.planHit.Value() != hits+1 || srv.planRebuild.Value() != rebuilds {
		t.Fatal("a recorded sql submit invalidated the kmeans entry")
	}
	served(t, srv, "sql", 1<<30)
	if now := srv.plans["sql"].entry.Load(); now == sql || now.gen == sql.gen || srv.planRebuild.Value() != rebuilds+1 {
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
		a, err := srv.answer(srv.plans["kmeans"], bytes)
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
		if n := len(srv.plans["kmeans"].entry.Load().answers); n > planCap {
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
				a, err := srv.answer(srv.plans["kmeans"], bytes)
				if err != nil {
					t.Error(err)
					return
				}
				mine[a.resp.Runs] = string(a.body)
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

// headerReusingWriter is the least a handler can write to: one header map
// kept across calls, the status and body discarded.
type headerReusingWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *headerReusingWriter) Header() http.Header         { return w.h }
func (w *headerReusingWriter) WriteHeader(status int)      { w.status = status }
func (w *headerReusingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// hitAllocs is what handleRecommend allocates on a hit: the []string value
// Header.Set stores for Content-Type. Parsing the query, finding the slot and
// the answer, and writing the body rendered on the miss allocate nothing.
const hitAllocs = 1

// TestRecommendHitAllocations: a hit costs hitAllocs for every built-in and
// every body size, so per-request encoding or parsing cannot come back
// unnoticed.
func TestRecommendHitAllocations(t *testing.T) {
	names := []string{"sql", "kmeans", "pca", "pagerank"}
	srv := trainedServer(t, names...)
	w := &headerReusingWriter{h: http.Header{}}
	sizes := map[int]bool{}
	for _, name := range names {
		slot := srv.plans[name]
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2} {
			target := "/v1/recommend?workload=" + name
			if f > 0 {
				target += fmt.Sprintf("&inputBytes=%d", int64(f*float64(slot.defaultBytes)))
			}
			r := httptest.NewRequest(http.MethodGet, target, nil)
			w.n = 0
			srv.handleRecommend(w, r) // the miss
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", target, w.status)
			}
			sizes[w.n] = true
			if got := testing.AllocsPerRun(50, func() { srv.handleRecommend(w, r) }); got != hitAllocs {
				t.Errorf("%s: a hit allocates %v objects, want %d", target, got, hitAllocs)
			}
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("every body was %v bytes; the guard needs bodies of different sizes", sizes)
	}
}
