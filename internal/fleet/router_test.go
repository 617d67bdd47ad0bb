package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chopper/api"
)

// builtinNames are the workloads the fleet must spread; the shard pins
// below are load-bearing for ci.sh's fleet smoke (it trains kmeans and sql
// expecting them on different shards at n=2).
var builtinNames = []string{"kmeans", "pca", "sql", "pagerank"}

func TestShardForSpreadsBuiltins(t *testing.T) {
	want2 := map[string]int{"kmeans": 1, "pca": 0, "sql": 0, "pagerank": 1}
	want4 := map[string]int{"kmeans": 1, "pca": 2, "sql": 0, "pagerank": 3}
	for _, name := range builtinNames {
		if got := ShardFor(name, 2); got != want2[name] {
			t.Errorf("ShardFor(%q, 2) = %d, want %d", name, got, want2[name])
		}
		if got := ShardFor(name, 4); got != want4[name] {
			t.Errorf("ShardFor(%q, 4) = %d, want %d", name, got, want4[name])
		}
		if got := ShardFor(name, 1); got != 0 {
			t.Errorf("ShardFor(%q, 1) = %d, want 0", name, got)
		}
	}
}

// recordingBackend is a fake chopperd capturing which workloads hit it.
type recordingBackend struct {
	mu        sync.Mutex
	workloads []string
}

func (b *recordingBackend) record(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.workloads = append(b.workloads, name)
}

func (b *recordingBackend) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string{}, b.workloads...)
}

// fakeDaemon serves just enough of the chopperd surface for router tests.
func fakeDaemon(t *testing.T, rec *recordingBackend, tag string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/train", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Workload string `json:"workload"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rec.record(req.Workload)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.TrainResponse{Workload: req.Workload, Runs: 1})
	})
	mux.HandleFunc("GET /v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		rec.record(r.URL.Query().Get("workload"))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.RecommendResponse{Workload: r.URL.Query().Get("workload")})
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		resp := api.WorkloadsResponse{}
		for i, name := range builtinNames {
			resp.Workloads = append(resp.Workloads, api.WorkloadInfo{Name: name, Runs: i + len(tag)})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "# HELP fake_requests requests seen\n# TYPE fake_requests counter\nfake_requests{tag=%q} 1\n", tag)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRouterRoutesWritesToOwningPrimary(t *testing.T) {
	recs := []*recordingBackend{{}, {}}
	srvs := []*httptest.Server{fakeDaemon(t, recs[0], "s0"), fakeDaemon(t, recs[1], "s1")}
	r, err := NewRouter(RouterConfig{Topology: Topology{Shards: []Shard{
		{Primary: srvs[0].URL}, {Primary: srvs[1].URL},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	for _, name := range builtinNames {
		body, _ := json.Marshal(map[string]string{"workload": name})
		resp, err := http.Post(front.URL+"/v1/train", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close() // status checked; body irrelevant
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("train %s: %s", name, resp.Status)
		}
	}
	for _, name := range builtinNames {
		shard := ShardFor(name, 2)
		if !contains(recs[shard].seen(), name) {
			t.Errorf("%s (shard %d) not seen by its primary; shard0=%v shard1=%v",
				name, shard, recs[0].seen(), recs[1].seen())
		}
		if contains(recs[1-shard].seen(), name) {
			t.Errorf("%s leaked to non-owning shard %d", name, 1-shard)
		}
	}
	// A body past api.MaxRequestBytes is refused with 413 and reaches no
	// primary.
	huge := `{"workload":"kmeans","pad":"` + strings.Repeat("a", api.MaxRequestBytes) + `"}`
	resp, err := http.Post(front.URL+"/v1/train", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // status checked; body irrelevant
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized train: %s, want 413", resp.Status)
	}
	if n := len(recs[0].seen()) + len(recs[1].seen()); n != len(builtinNames) {
		t.Fatalf("primaries saw %d writes, want %d", n, len(builtinNames))
	}
}

func TestRouterReadFailoverOnDeadReplica(t *testing.T) {
	prec, rrec := &recordingBackend{}, &recordingBackend{}
	primary := fakeDaemon(t, prec, "p")
	replica := fakeDaemon(t, rrec, "r")
	r, err := NewRouter(RouterConfig{Topology: Topology{Shards: []Shard{
		{Primary: primary.URL, Replicas: []string{replica.URL}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// The prober has seen the replica healthy; then it dies.
	r.setProbe(replica.URL, backendState{live: true, ready: true})
	replica.Close()
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	resp, err := http.Get(front.URL + "/v1/recommend?workload=kmeans")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // status checked; body irrelevant
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read with dead replica must fail over, got %s", resp.Status)
	}
	if len(prec.seen()) != 1 {
		t.Fatalf("primary served %v reads, want 1", prec.seen())
	}
	health := r.healthView()
	if health.Shards[0].Backends[1].Live {
		t.Fatal("dead replica still marked live after transport failure")
	}
}

func TestRouterPrefersReadyReplicaForReads(t *testing.T) {
	prec, rrec := &recordingBackend{}, &recordingBackend{}
	primary := fakeDaemon(t, prec, "p")
	replica := fakeDaemon(t, rrec, "r")
	r, err := NewRouter(RouterConfig{Topology: Topology{Shards: []Shard{
		{Primary: primary.URL, Replicas: []string{replica.URL}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	// Before the replica is known synced, reads go to the primary.
	resp, err := http.Get(front.URL + "/v1/recommend?workload=kmeans")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // status checked; body irrelevant
	if got := len(prec.seen()); got != 1 {
		t.Fatalf("primary reads before replica ready = %d, want 1", got)
	}
	// Probe marks it ready; reads move over.
	r.probeAll()
	resp, err = http.Get(front.URL + "/v1/recommend?workload=kmeans")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close() // status checked; body irrelevant
	if got := len(rrec.seen()); got != 1 {
		t.Fatalf("replica reads after ready = %d, want 1", got)
	}
}

func TestRouterMergesWorkloadsFromOwners(t *testing.T) {
	recs := []*recordingBackend{{}, {}}
	srvs := []*httptest.Server{fakeDaemon(t, recs[0], "s0"), fakeDaemon(t, recs[1], "s1-x")}
	r, err := NewRouter(RouterConfig{Topology: Topology{Shards: []Shard{
		{Primary: srvs[0].URL}, {Primary: srvs[1].URL},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	resp, err := http.Get(front.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }() // body fully decoded below
	var merged api.WorkloadsResponse
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Workloads) != len(builtinNames) {
		t.Fatalf("merged %d workloads, want %d", len(merged.Workloads), len(builtinNames))
	}
	// fakeDaemon reports Runs = index + len(tag), so the owning shard's tag
	// length shows which backend each entry came from.
	tagLen := map[int]int{0: len("s0"), 1: len("s1-x")}
	for i, info := range merged.Workloads {
		owner := ShardFor(info.Name, 2)
		if want := i + tagLen[owner]; info.Runs != want {
			t.Errorf("%s: Runs = %d, want %d (from owner shard %d)", info.Name, info.Runs, want, owner)
		}
	}
}

func TestRouterAggregatedMetrics(t *testing.T) {
	recs := []*recordingBackend{{}, {}}
	srvs := []*httptest.Server{fakeDaemon(t, recs[0], "s0"), fakeDaemon(t, recs[1], "s1")}
	r, err := NewRouter(RouterConfig{Topology: Topology{Shards: []Shard{
		{Primary: srvs[0].URL}, {Primary: srvs[1].URL},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }() // body fully read below
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if strings.Count(text, "# HELP fake_requests") != 1 {
		t.Fatalf("merged exposition must hold one HELP per family:\n%s", text)
	}
	for _, srv := range srvs {
		if !strings.Contains(text, fmt.Sprintf("backend=%q", srv.URL)) {
			t.Fatalf("samples from %s missing backend label:\n%s", srv.URL, text)
		}
	}
	if !strings.Contains(text, "chopperrouter_backend_live") {
		t.Fatalf("router liveness gauges missing:\n%s", text)
	}
}

func TestMergeMetricsGroupsFamilies(t *testing.T) {
	a := []byte("# HELP m_seconds latency\n# TYPE m_seconds histogram\nm_seconds_bucket{le=\"1\"} 2\nm_seconds_sum 1.5\nm_seconds_count 2\n")
	b := []byte("# HELP m_seconds latency\n# TYPE m_seconds histogram\nm_seconds_bucket{le=\"1\"} 4\nm_seconds_sum 3\nm_seconds_count 4\n")
	out := string(mergeMetrics([]metricsSource{{Backend: "u1", Body: a}, {Backend: "u2", Body: b}}))
	if strings.Count(out, "# HELP m_seconds") != 1 || strings.Count(out, "# TYPE m_seconds") != 1 {
		t.Fatalf("family headers duplicated:\n%s", out)
	}
	if !strings.Contains(out, `m_seconds_bucket{backend="u1",le="1"} 2`) ||
		!strings.Contains(out, `m_seconds_bucket{backend="u2",le="1"} 4`) {
		t.Fatalf("bucket samples not relabeled:\n%s", out)
	}
	if !strings.Contains(out, `m_seconds_sum{backend="u1"} 1.5`) {
		t.Fatalf("bare sample not relabeled:\n%s", out)
	}
	// All samples of the family must be contiguous under its single header.
	if help := strings.Index(out, "# HELP"); strings.LastIndex(out, "# HELP") != help {
		t.Fatalf("comments interleaved with samples:\n%s", out)
	}
}

func TestRouterHealthzDegradedWithoutPrimary(t *testing.T) {
	rec := &recordingBackend{}
	primary := fakeDaemon(t, rec, "p")
	r, err := NewRouter(RouterConfig{Topology: Topology{Shards: []Shard{{Primary: primary.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	r.probeAll()
	if got := r.healthView().Status; got != "ok" {
		t.Fatalf("status with live primary = %q, want ok", got)
	}
	primary.Close()
	r.probeAll()
	if got := r.healthView().Status; got != "degraded" {
		t.Fatalf("status with dead primary = %q, want degraded", got)
	}
}
