package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// admissionServer fakes chopperd's /v1/recommend endpoint rejecting the
// first reject requests with 429 (and the given Retry-After header, if
// any) before answering 200.
func admissionServer(t *testing.T, reject int64, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= reject {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, `{"error":"admission: queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// TestRetryOn429ThenSuccess drives one recommend request into a server
// that rejects twice before accepting: the request must be retried (with
// the default backoff, since the server sends no usable Retry-After) and
// ultimately succeed, counted once with two retries and no drops.
func TestRetryOn429ThenSuccess(t *testing.T) {
	srv, hits := admissionServer(t, 2, "")
	res, err := Run(context.Background(), Config{
		Base:        srv.URL,
		Concurrency: 1,
		Requests:    1,
		// SubmitFraction 0 keeps every request a recommend read.
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 || res.Recommends != 1 || res.Submits != 0 {
		t.Fatalf("Requests/Recommends/Submits = %d/%d/%d, want 1/1/0",
			res.Requests, res.Recommends, res.Submits)
	}
	if res.Retries429 != 2 {
		t.Fatalf("Retries429 = %d, want 2", res.Retries429)
	}
	if res.Dropped != 0 || res.FirstError != "" {
		t.Fatalf("Dropped/FirstError = %d/%q, want 0/\"\"", res.Dropped, res.FirstError)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejections + 1 success)", got)
	}
	if res.Hist.Count() != 1 {
		t.Fatalf("histogram recorded %d latencies, want 1 (successes only)", res.Hist.Count())
	}
}

// TestRetryExhaustionDrops pins the bounded-retry contract: a server that
// never admits makes the request exhaust MaxRetries, land in Dropped with
// the rejection as FirstError, and stay out of the latency histogram.
func TestRetryExhaustionDrops(t *testing.T) {
	srv, hits := admissionServer(t, 1<<30, "")
	res, err := Run(context.Background(), Config{
		Base:        srv.URL,
		Concurrency: 1,
		Requests:    1,
		MaxRetries:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", res.Dropped)
	}
	if res.Retries429 != 3 {
		t.Fatalf("Retries429 = %d, want 3 (every rejection counts, including the final one)", res.Retries429)
	}
	if !strings.Contains(res.FirstError, "retries exhausted") {
		t.Fatalf("FirstError = %q, want a retries-exhausted error", res.FirstError)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (initial + MaxRetries)", got)
	}
	if res.Hist.Count() != 0 {
		t.Fatalf("histogram recorded %d latencies, want 0 (dropped requests excluded)", res.Hist.Count())
	}
}

// countingServer answers 200 {} on every path and tallies hits per path
// prefix.
func countingServer(t *testing.T) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var total, trains atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		total.Add(1)
		if strings.HasPrefix(r.URL.Path, "/v1/train") {
			trains.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &total, &trains
}

// TestMultiTargetShardBreakdown spreads a run across two targets and two
// workloads with a 2-shard ring: the ticket picks the target, so each
// target must see exactly half the requests whatever order the workers run
// in, and the
// per-shard and per-target breakdowns must each partition the totals. The
// shard labels pin the fleet hash-ring placement (kmeans → shard 1,
// sql → shard 0 at n=2).
func TestMultiTargetShardBreakdown(t *testing.T) {
	srvA, hitsA, _ := countingServer(t)
	srvB, hitsB, _ := countingServer(t)
	res, err := Run(context.Background(), Config{
		Targets:     []string{srvA.URL, srvB.URL},
		Workloads:   []string{"kmeans", "sql"},
		ShardCount:  2,
		Concurrency: 4,
		Requests:    40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 || res.Dropped != 0 {
		t.Fatalf("Requests/Dropped = %d/%d, want 40/0", res.Requests, res.Dropped)
	}
	if hitsA.Load() != 20 || hitsB.Load() != 20 {
		t.Fatalf("target hits = %d/%d, want 20/20", hitsA.Load(), hitsB.Load())
	}
	if len(res.Shards) != 2 || len(res.Targets) != 2 {
		t.Fatalf("breakdown rows = %d shards / %d targets, want 2/2", len(res.Shards), len(res.Targets))
	}
	if res.Shards[0].Label != "shard 0 (sql)" || res.Shards[1].Label != "shard 1 (kmeans)" {
		t.Fatalf("shard labels = %q, %q; want shard 0 (sql), shard 1 (kmeans)",
			res.Shards[0].Label, res.Shards[1].Label)
	}
	for _, rows := range [][]Breakdown{res.Shards, res.Targets} {
		sum := 0
		for i := range rows {
			sum += rows[i].Requests
		}
		if sum != res.Requests {
			t.Fatalf("breakdown rows sum to %d requests, want %d", sum, res.Requests)
		}
	}
	if out := res.BreakdownString(); !strings.Contains(out, "shard 1 (kmeans)") || !strings.Contains(out, srvA.URL) {
		t.Fatalf("BreakdownString missing rows:\n%s", out)
	}
}

// TestTrainFractionIssuesTrains pins the write mix: TrainFraction 1 turns
// every request into a /v1/train call.
func TestTrainFractionIssuesTrains(t *testing.T) {
	srv, total, trains := countingServer(t)
	res, err := Run(context.Background(), Config{
		Base:          srv.URL,
		Concurrency:   2,
		Requests:      8,
		TrainFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trains != 8 || res.Submits != 0 || res.Recommends != 0 {
		t.Fatalf("Trains/Submits/Recommends = %d/%d/%d, want 8/0/0",
			res.Trains, res.Submits, res.Recommends)
	}
	if total.Load() != 8 || trains.Load() != 8 {
		t.Fatalf("server saw %d requests (%d trains), want 8 (8 trains)", total.Load(), trains.Load())
	}
}

// TestRetryAfterBackoffHonorsContext proves two things at once: the
// worker adopts the server's Retry-After hint (a 5s backoff it would
// otherwise never choose), and the backoff select still honors context
// cancellation — the run returns promptly instead of sleeping out the
// hint.
func TestRetryAfterBackoffHonorsContext(t *testing.T) {
	srv, hits := admissionServer(t, 1<<30, "5")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, Config{Base: srv.URL, Concurrency: 1, Requests: 1})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("run took %v; the 5s Retry-After backoff ignored cancellation", elapsed)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("Run error = %v, want context.DeadlineExceeded", err)
	}
	if res.Dropped != 1 || res.Retries429 != 1 {
		t.Fatalf("Dropped/Retries429 = %d/%d, want 1/1 (one rejection, then the backoff is interrupted)",
			res.Dropped, res.Retries429)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (the 5s hint must delay the retry past cancellation)", got)
	}
}
