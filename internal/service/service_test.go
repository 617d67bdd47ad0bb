package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"chopper/api"
	"chopper/client"
	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/plan/verify"
)

// startTestServer runs a daemon on an ephemeral port and returns a client
// plus a stop function that drains it and requires a clean exit.
func startTestServer(t *testing.T, cfg Config) (*Server, *client.Client, func()) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cl := client.New("http://" + ln.Addr().String())
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl.Health(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("serve returned: %v", err)
		}
	}
	t.Cleanup(stop)
	return srv, cl, stop
}

// smallGrid is the cheapest useful training grid.
func smallGrid(workload string) api.TrainRequest {
	noRange := false
	return api.TrainRequest{
		Workload:      workload,
		Shrink:        24,
		SizeFractions: []float64{0.5, 1.0},
		Partitions:    []int{150, 300},
		Range:         &noRange,
	}
}

// smallTrain runs smallGrid through a served daemon.
func smallTrain(t *testing.T, cl *client.Client, workload string) *api.TrainResponse {
	t.Helper()
	tr, err := cl.Train(context.Background(), smallGrid(workload))
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return tr
}

// apiStatus extracts the HTTP status from a client error.
func apiStatus(t *testing.T, err error) int {
	t.Helper()
	ae, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("error %v (%T) is not an *client.APIError", err, err)
	}
	return ae.Status
}

// TestUnknownWorkload404 pins the not-found mapping on both the pooled
// write path and the direct read path.
func TestUnknownWorkload404(t *testing.T) {
	_, cl, _ := startTestServer(t, Config{})
	ctx := context.Background()
	_, err := cl.Submit(ctx, api.SubmitRequest{Workload: "nope"})
	if got := apiStatus(t, err); got != http.StatusNotFound {
		t.Fatalf("submit unknown workload: status %d, want 404", got)
	}
	_, err = cl.Recommend(ctx, "nope", 0)
	if got := apiStatus(t, err); got != http.StatusNotFound {
		t.Fatalf("recommend unknown workload: status %d, want 404", got)
	}
	_, err = cl.Recommend(ctx, "kmeans", 0)
	if got := apiStatus(t, err); got != http.StatusConflict {
		t.Fatalf("recommend untrained workload: status %d, want 409", got)
	}
}

// TestQueueFull429 pins admission control: with the single worker blocked
// and the one queue slot taken, a submit must be rejected with 429 and a
// Retry-After hint — never queued unboundedly.
func TestQueueFull429(t *testing.T) {
	srv, cl, _ := startTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	gate := make(chan struct{})
	block := func(ctx context.Context) (any, error) { <-gate; return nil, nil }

	// First job occupies the worker...
	if err := srv.pool.submit(newJob(context.Background(), block)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(time.Millisecond)
	}
	// ...the second fills the queue.
	if err := srv.pool.submit(newJob(context.Background(), block)); err != nil {
		t.Fatal(err)
	}

	_, err := cl.Submit(context.Background(), api.SubmitRequest{Workload: "kmeans", Shrink: 50})
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("submit against full queue: %v, want 429", err)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("429 carried Retry-After %v, want >= 1s", ae.RetryAfter)
	}
	close(gate)
}

// TestTrainPartitionsBoundedByVerifier: admission refuses the partition
// counts the plan verifier would refuse on the daemon's cluster. With the
// worker busy and the queue full, one partition past the verifier's limit
// is a 400 before anything is queued, and the limit itself passes admission
// and meets the full queue (429) instead of being queued to fail with 422.
func TestTrainPartitionsBoundedByVerifier(t *testing.T) {
	srv, _, _ := startTestServer(t, Config{Workers: 1, QueueDepth: 1})
	limit := verify.DefaultLimits(cluster.PaperCluster()).MaxPartitions
	if limit != 11200 || limit >= api.MaxPartitions {
		t.Fatalf("the paper cluster's verifier limit is %d, want 11200, below api.MaxPartitions", limit)
	}
	gate := make(chan struct{})
	defer close(gate)
	block := func(ctx context.Context) (any, error) { <-gate; return nil, nil }
	if err := srv.pool.submit(newJob(context.Background(), block)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.pool.submit(newJob(context.Background(), block)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ parts, want int }{{limit + 1, http.StatusBadRequest}, {limit, http.StatusTooManyRequests}} {
		body := fmt.Sprintf(`{"workload":"sql","shrink":24,"sizeFractions":[1],"partitions":[%d]}`, c.parts)
		rec := httptest.NewRecorder()
		srv.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/train", strings.NewReader(body)))
		if rec.Code != c.want {
			t.Errorf("train at %d partitions: status %d (%s), want %d", c.parts, rec.Code, strings.TrimSpace(rec.Body.String()), c.want)
		}
	}
}

// TestDrainWritesLoadableSnapshot pins the clean-shutdown contract: an
// in-flight submit completes during the drain, the final snapshot is
// loadable and complete, and the journal is truncated.
func TestDrainWritesLoadableSnapshot(t *testing.T) {
	store := filepath.Join(t.TempDir(), "profiles.db")
	srv, cl, stop := startTestServer(t, Config{StorePath: store})
	smallTrain(t, cl, "kmeans")

	subErr := make(chan error, 1)
	go func() {
		_, err := cl.Submit(context.Background(), api.SubmitRequest{Workload: "kmeans", Shrink: 24})
		subErr <- err
	}()
	// Stop only once the submit has been admitted (queued or executing), so
	// the drain genuinely covers an in-flight job.
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.depth()+srv.pool.inflight() == 0 {
		if len(subErr) > 0 { // completed between polls — already admitted
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submit never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if err := <-subErr; err != nil {
		t.Fatalf("in-flight submit failed during drain: %v", err)
	}

	wantSamples := srv.db.SampleCount("kmeans")
	db, err := core.LoadDB(store)
	if err != nil {
		t.Fatalf("snapshot not loadable: %v", err)
	}
	if got := db.SampleCount("kmeans"); got != wantSamples || got == 0 {
		t.Fatalf("snapshot has %d samples, want %d (> 0)", got, wantSamples)
	}
	if _, db2, err := core.OpenStore(store); err != nil {
		t.Fatalf("reopen store: %v", err)
	} else if got := db2.SampleCount("kmeans"); got != wantSamples {
		t.Fatalf("store reopen has %d samples, want %d", got, wantSamples)
	}
}

// TestCrashReplayReproducesState pins durability without a snapshot: with
// the daemon still running (journal only, synced per append), a second
// store opened on the same path must reproduce the sample count and the
// byte-exact recommend response — what a restart after SIGKILL sees.
func TestCrashReplayReproducesState(t *testing.T) {
	store := filepath.Join(t.TempDir(), "profiles.db")
	srv, cl, _ := startTestServer(t, Config{StorePath: store})
	smallTrain(t, cl, "kmeans")
	if _, err := cl.Submit(context.Background(), api.SubmitRequest{Workload: "kmeans", Shrink: 24}); err != nil {
		t.Fatal(err)
	}
	want := srv.db.SampleCount("kmeans")
	r1, err := cl.RecommendRaw(context.Background(), "kmeans", 0)
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}

	srv2, err := New(Config{StorePath: store})
	if err != nil {
		t.Fatalf("restart on journal: %v", err)
	}
	if got := srv2.db.SampleCount("kmeans"); got != want || got == 0 {
		t.Fatalf("replayed DB has %d samples, want %d (> 0)", got, want)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/recommend?workload=kmeans", nil)
	rec := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("recommend after replay: status %d: %s", rec.Code, rec.Body)
	}
	if !bytes.Equal(r1, rec.Body.Bytes()) {
		t.Fatalf("recommend changed across replay:\nlive:     %s\nreplayed: %s", r1, rec.Body.Bytes())
	}
}

// TestJobTimeoutClamped pins the deadline bound: a client-supplied
// TimeoutSeconds cannot extend a job past the server's JobTimeout, so one
// request can never pin a worker (or stall a graceful drain) indefinitely.
func TestJobTimeoutClamped(t *testing.T) {
	srv, _, _ := startTestServer(t, Config{JobTimeout: 100 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	rec := httptest.NewRecorder()
	_, ok := srv.runJob(rec, req, 3600, func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, nil
		}
	})
	if ok {
		t.Fatal("job succeeded despite exceeding the clamped deadline")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("job ran %v, want ~100ms under the clamp", elapsed)
	}
}

// TestOpsEndpoints pins /healthz and /metrics shape.
func TestOpsEndpoints(t *testing.T) {
	_, cl, _ := startTestServer(t, Config{})
	ctx := context.Background()
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers < 1 || h.QueueCap < 1 {
		t.Fatalf("unexpected health: %+v", h)
	}
	if _, err := cl.Workloads(ctx); err != nil {
		t.Fatal(err)
	}
	// One question of an untrained workload: an entry is cut and the
	// optimizer runs (and fails) once.
	if _, err := cl.Recommend(ctx, "kmeans", 0); apiStatus(t, err) != http.StatusConflict {
		t.Fatalf("recommend untrained workload: %v, want 409", err)
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"chopperd_http_requests_total",
		"chopperd_queue_capacity",
		"chopperd_workers",
		`chopperd_http_seconds_bucket{path="/healthz",le="+Inf"}`,
		`chopperd_plan_cache_total{result="hit"} 0`,
		`chopperd_plan_cache_total{result="miss"} 1`,
		`chopperd_plan_cache_total{result="rebuild"} 1`,
		`chopperd_plan_generation{workload="kmeans"} `,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRequestBodiesBounded: both body-reading endpoints read at most
// api.MaxRequestBytes. A 2 MiB body — one JSON string the decoder must
// read to the end to reject — gets 413 promptly, without a job running,
// and malformed JSON still gets 400.
func TestRequestBodiesBounded(t *testing.T) {
	srv, _, _ := startTestServer(t, Config{})
	huge := `{"workload":"kmeans","pad":"` + strings.Repeat("a", 2<<20) + `"}`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/jobs", huge, http.StatusRequestEntityTooLarge},
		{"/v1/train", huge, http.StatusRequestEntityTooLarge},
		{"/v1/jobs", `{"workload":`, http.StatusBadRequest},
		{"/v1/train", `not json`, http.StatusBadRequest},
	} {
		start := time.Now()
		rec := httptest.NewRecorder()
		srv.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		elapsed := time.Since(start)
		var body api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s (%d bytes): error body %q: %v", tc.path, len(tc.body), rec.Body.String(), err)
		}
		if rec.Code != tc.want || body.Status != tc.want {
			t.Errorf("%s (%d bytes): status %d, body %+v; want %d", tc.path, len(tc.body), rec.Code, body, tc.want)
		}
		if elapsed > 5*time.Second {
			t.Errorf("%s (%d bytes): answered after %v, want promptly", tc.path, len(tc.body), elapsed)
		}
	}
	if n := srv.pool.depth(); n != 0 {
		t.Fatalf("%d jobs queued by refused requests", n)
	}
}

// TestHostileInputsAnsweredPromptly: requests no run can honour get a 4xx
// within a second — 400 before any job is queued for an unknown field, a
// negative size, an out-of-bounds trial plan or a shrink factor that leaves
// a table without rows; 422 from the job, before any stage runs, for an
// input the plan verifier finds too large for the executors' memory — and
// the daemon still answers /healthz afterwards.
func TestHostileInputsAnsweredPromptly(t *testing.T) {
	srv, cl, _ := startTestServer(t, Config{})
	tooMany := "[" + strings.Repeat("100,", api.MaxPlanEntries) + "100]"
	train := func(field string) string { return `{"workload":"kmeans","shrink":24,` + field + `}` }
	type request struct {
		path, body string
		want       int
	}
	cases := []request{
		{"/v1/jobs", `{"workload":"kmeans","shrink":-1}`, http.StatusBadRequest},
		{"/v1/jobs", `{"workload":"sql","inputBytes":-1}`, http.StatusBadRequest},
		{"/v1/train", `{"workload":"kmeans","shrink":-24}`, http.StatusBadRequest},
		{"/v1/train", `{"workload":"kmeans","inputBytes":-9223372036854775808}`, http.StatusBadRequest},
		{"/v1/train", train(`"partitions":[0]`), http.StatusBadRequest},
		{"/v1/train", train(`"partitions":[100000000]`), http.StatusBadRequest},
		{"/v1/train", train(fmt.Sprintf(`"partitions":[%d]`, api.MaxPartitions+1)), http.StatusBadRequest},
		{"/v1/train", train(`"partitions":` + tooMany), http.StatusBadRequest},
		{"/v1/train", train(`"sizeFractions":[1e308]`), http.StatusBadRequest},
		{"/v1/train", train(`"sizeFractions":[0]`), http.StatusBadRequest},
		{"/v1/train", train(`"sizeFractions":[-0.5]`), http.StatusBadRequest},
		{"/v1/train", train(`"sizeFractions":[1.0000001]`), http.StatusBadRequest},
		{"/v1/jobs", `{"workload":"sql","bogusField":1}`, http.StatusBadRequest},
		{"/v1/train", train(`"bogusField":1`), http.StatusBadRequest},
		{"/v1/jobs", `{"workload":"sql","shrink":2000}`, http.StatusBadRequest}, // no customers left
		{"/v1/train", train(`"inputBytes":9223372036854775807,"sizeFractions":[1],"partitions":[100]`), http.StatusUnprocessableEntity},
		{"/v1/jobs", `{"workload":"kmeans","shrink":1000}`, http.StatusUnprocessableEntity}, // fewer points than centers
		{"/v1/jobs", `{"workload":"pca","shrink":15000}`, http.StatusUnprocessableEntity},   // a degenerate power iteration
	}
	for _, w := range []string{"kmeans", "pca", "sql", "pagerank"} {
		cases = append(cases,
			request{"/v1/jobs", `{"workload":"` + w + `","shrink":1000000}`, http.StatusBadRequest},
			request{"/v1/jobs", `{"workload":"` + w + `","shrink":24,"inputBytes":9223372036854775807}`, http.StatusUnprocessableEntity})
	}
	for _, tc := range cases {
		start := time.Now()
		rec := httptest.NewRecorder()
		srv.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		elapsed := time.Since(start)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d (%s), want %d", tc.path, tc.body, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
		if elapsed > time.Second {
			t.Errorf("%s %s: answered after %v, want within 1 s", tc.path, tc.body, elapsed)
		}
	}
	// JSON has no NaN or Inf; a caller building the request in Go can.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := srv.checkTrain(api.TrainRequest{Workload: "kmeans", SizeFractions: []float64{f}})
		if he, ok := err.(*httpError); !ok || he.status != http.StatusBadRequest {
			t.Errorf("size fraction %v: %v, want a 400", f, err)
		}
	}
	if err := srv.checkTrain(smallGrid("kmeans")); err != nil {
		t.Fatalf("the small grid is refused: %v", err)
	}
	if _, err := cl.Health(context.Background()); err != nil {
		t.Fatalf("healthz after hostile inputs: %v", err)
	}
}

// TestHostileQueriesAnsweredPromptly: the read endpoints answer hostile
// query strings — an inputBytes of 1, 2⁶³−1, 2⁶⁴ (overflow), 0, negative or
// not a number; an empty, unknown or untrained workload; a repeated
// inputBytes key, of which the first counts — within 1 s each, with the
// status the request deserves, and every 2xx body lists partition counts
// in [1, api.MaxPartitions]. kmeans at 2⁶³−1 bytes gets 150 partitions
// per stage, the model's answer at that size.
func TestHostileQueriesAnsweredPromptly(t *testing.T) {
	srv, cl, _ := startTestServer(t, Config{})
	smallTrain(t, cl, "kmeans")
	cases := []struct {
		query string
		want  int
	}{
		{"workload=kmeans&inputBytes=1", http.StatusOK},
		{"workload=kmeans&inputBytes=9223372036854775807", http.StatusOK},
		{"workload=kmeans&inputBytes=18446744073709551616", http.StatusBadRequest},
		{"workload=kmeans&inputBytes=0", http.StatusBadRequest},
		{"workload=kmeans&inputBytes=-5", http.StatusBadRequest},
		{"workload=kmeans&inputBytes=abc", http.StatusBadRequest},
		{"workload=", http.StatusNotFound},
		{"", http.StatusNotFound},
		{"workload=nosuch", http.StatusNotFound},
		{"workload=pca", http.StatusConflict},
		{"workload=kmeans&inputBytes=abc&inputBytes=1", http.StatusBadRequest},
		{"workload=kmeans&inputBytes=9223372036854775807&inputBytes=abc", http.StatusOK},
	}
	explainCounts := regexp.MustCompile(`-> \S+ x(\d+)`)
	for _, path := range []string{"/v1/recommend", "/v1/explain"} {
		for _, tc := range cases {
			target := path + "?" + tc.query
			start := time.Now()
			rec := httptest.NewRecorder()
			srv.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			elapsed := time.Since(start)
			body := rec.Body.String()
			if rec.Code != tc.want {
				t.Errorf("%s: status %d (%s), want %d", target, rec.Code, strings.TrimSpace(body), tc.want)
				continue
			}
			if elapsed > time.Second {
				t.Errorf("%s: answered after %v, want within 1 s", target, elapsed)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			var counts []int
			if path == "/v1/recommend" {
				var resp api.RecommendResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%s: %v", target, err)
				}
				for _, s := range resp.Schemes {
					counts = append(counts, s.NumPartitions)
				}
			} else {
				for _, m := range explainCounts.FindAllStringSubmatch(body, -1) {
					n, _ := strconv.Atoi(m[1])
					counts = append(counts, n)
				}
			}
			if len(counts) == 0 {
				t.Errorf("%s: no partition counts in %s", target, body)
			}
			for _, n := range counts {
				if n < 1 || n > api.MaxPartitions {
					t.Errorf("%s: %d partitions, outside [1, %d]", target, n, api.MaxPartitions)
				}
				if strings.Contains(tc.query, "inputBytes=9223372036854775807") && n != 150 {
					t.Errorf("%s: %d partitions, want 150", target, n)
				}
			}
		}
	}
}
