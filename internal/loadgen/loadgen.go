// Package loadgen is chopperd's closed-loop load generator: a fixed set of
// workers each keeps exactly one request in flight, drawing a deterministic
// mix of recommend, submit, and train traffic, honoring admission control
// (429 + Retry-After) with bounded retries, and recording latencies in a
// shared histogram. A run can spread its requests across several targets
// (shard primaries, replicas, or a fleet router) and rotate through several
// workloads, reporting a per-shard and per-target breakdown next to the
// merged totals. cmd/chopperload drives it from the command line and from
// its smoke harnesses.
package loadgen

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chopper/api"
	"chopper/client"
	"chopper/internal/fleet"
	"chopper/internal/metrics"
)

// Config shapes one load-generation run.
type Config struct {
	// Base is the daemon's root URL.
	Base string
	// Targets lists several base URLs (shard primaries, replicas, or a
	// router); requests are spread round-robin across them by ticket, one
	// full rotation of Workloads per target in turn, so every target sees
	// every workload. Empty: [Base].
	Targets []string
	// Concurrency is the closed-loop worker count (default 8).
	Concurrency int
	// Requests is the total request budget across workers (default 64).
	Requests int
	// Workload names the built-in workload to exercise (default "kmeans").
	Workload string
	// Workloads rotates several workloads across the ticket sequence;
	// empty: [Workload]. With ShardCount set, each workload's traffic is
	// attributed to its owning fleet shard in the breakdown.
	Workloads []string
	// InputBytes overrides the workload's logical input size (0: default).
	InputBytes int64
	// Shrink forwards the physical-shrink factor on submits (0: server
	// default) and train calls (0: 24, the cheap profiling grid).
	Shrink int
	// SubmitFraction is the fraction of requests that are submit jobs (default
	// 0.25); TrainFraction is the fraction that are cheap incremental train
	// calls (default 0). The rest are recommend reads.
	SubmitFraction float64
	TrainFraction  float64
	// ShardCount, when > 0, adds a per-shard breakdown to the result using
	// the fleet hash ring (fleet.ShardFor) to attribute each workload.
	ShardCount int
	// Tuned submits jobs under the CHOPPER configuration.
	Tuned bool
	// NoRecord stops submits from mutating the profile store.
	NoRecord bool
	// MaxRetries bounds per-request retries on 429 (default 64).
	MaxRetries int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if c.Workload == "" {
		c.Workload = "kmeans"
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{c.Workload}
	}
	if len(c.Targets) == 0 {
		c.Targets = []string{c.Base}
	}
	if c.SubmitFraction < 0 || c.SubmitFraction > 1 {
		c.SubmitFraction = 0.25
	}
	if c.TrainFraction < 0 || c.TrainFraction > 1 {
		c.TrainFraction = 0
	}
	if c.SubmitFraction+c.TrainFraction > 1 {
		c.SubmitFraction = 1 - c.TrainFraction
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 64
	}
	return c
}

// Breakdown is one row of the per-shard or per-target result split.
type Breakdown struct {
	// Label names the row: "shard 0 (kmeans, pagerank)" or a target URL.
	Label string
	// Requests and Dropped count this row's traffic; Hist holds its
	// successful-request latencies.
	Requests int
	Dropped  int
	Hist     *metrics.Histogram
}

// Throughput reports the row's successful requests per second over the
// run's wall-clock time.
func (b *Breakdown) Throughput(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(b.Requests-b.Dropped) / elapsed
}

// row renders one breakdown line.
func (b *Breakdown) row(elapsed float64) string {
	return fmt.Sprintf("  %-40s %5d req  %7.1f req/s  p50 %6.1fms  p99 %6.1fms  %d dropped",
		b.Label, b.Requests, b.Throughput(elapsed),
		b.Hist.Quantile(0.50)*1e3, b.Hist.Quantile(0.99)*1e3, b.Dropped)
}

// Result summarizes a run.
type Result struct {
	// Requests is the number issued; Submits + Recommends + Trains == Requests.
	Requests   int
	Submits    int
	Recommends int
	Trains     int
	// Retries429 counts admission rejections that were retried.
	Retries429 int
	// Dropped counts requests that never succeeded (errors or retry
	// exhaustion); FirstError carries the first failure seen.
	Dropped    int
	FirstError string
	// Elapsed is the wall-clock run time in seconds; Hist holds per-request
	// latencies (successful requests only).
	Elapsed float64
	Hist    *metrics.Histogram
	// Shards breaks the run down by owning fleet shard (ShardCount > 0);
	// Targets breaks it down by endpoint (more than one target).
	Shards  []Breakdown
	Targets []Breakdown
}

// Throughput reports successful requests per wall-clock second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests-r.Dropped) / r.Elapsed
}

// String renders the one-line summary chopperload prints.
func (r *Result) String() string {
	return fmt.Sprintf("%d requests (%d submit / %d train / %d recommend) in %.2fs: %.1f req/s, p50 %.1fms p99 %.1fms max %.1fms, %d retries, %d dropped",
		r.Requests, r.Submits, r.Trains, r.Recommends, r.Elapsed, r.Throughput(),
		r.Hist.Quantile(0.50)*1e3, r.Hist.Quantile(0.99)*1e3, r.Hist.Max()*1e3,
		r.Retries429, r.Dropped)
}

// BreakdownString renders the per-shard and per-target rows, one per line;
// empty when the run had neither split.
func (r *Result) BreakdownString() string {
	var b strings.Builder
	for i := range r.Shards {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.Shards[i].row(r.Elapsed))
	}
	for i := range r.Targets {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.Targets[i].row(r.Elapsed))
	}
	return b.String()
}

// workerStats is one worker's private tally, merged after the run so the
// hot path shares nothing but the latency histograms (which lock
// themselves).
type workerStats struct {
	requests   int
	submits    int
	recommends int
	trains     int
	retries429 int
	dropped    int
	firstErr   string
	// shardReqs/shardDrops and targetReqs/targetDrops are indexed like the
	// run's Shards and Targets breakdowns.
	shardReqs   []int
	shardDrops  []int
	targetReqs  []int
	targetDrops []int
}

// request kinds drawn from the deterministic mix.
const (
	kindRecommend = iota
	kindSubmit
	kindTrain
)

// mixDraw maps (worker, ticket) to a deterministic pseudo-uniform in [0, 1)
// so the submit/train/recommend mix is reproducible across runs.
func mixDraw(worker int, ticket int64) float64 {
	x := uint64(worker+1)*0x9e3779b97f4a7c15 + uint64(ticket)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return float64(x>>11) / float64(1<<53)
}

// shardPlan maps each workload index to its breakdown row and builds the
// row labels; with ShardCount <= 0 there is a single unlabeled row that the
// result omits.
func shardPlan(cfg Config) (rowOf []int, labels []string) {
	rowOf = make([]int, len(cfg.Workloads))
	if cfg.ShardCount <= 0 {
		return rowOf, nil
	}
	members := make([][]string, cfg.ShardCount)
	for i, w := range cfg.Workloads {
		s := fleet.ShardFor(w, cfg.ShardCount)
		rowOf[i] = s
		members[s] = append(members[s], w)
	}
	labels = make([]string, cfg.ShardCount)
	for s := range labels {
		names := strings.Join(members[s], ", ")
		if names == "" {
			names = "no workloads"
		}
		labels[s] = fmt.Sprintf("shard %d (%s)", s, names)
	}
	return rowOf, labels
}

// Run executes the closed loop until the request budget is spent or ctx is
// canceled. It returns the merged result; a nil error means the run itself
// completed (individual request failures are reported in Result.Dropped).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	clients := make([]*client.Client, len(cfg.Targets))
	for i, t := range cfg.Targets {
		clients[i] = client.New(t)
	}
	shardOf, shardLabels := shardPlan(cfg)
	shardHists := make([]*metrics.Histogram, len(shardLabels))
	for i := range shardHists {
		shardHists[i] = metrics.NewHistogram()
	}
	targetHists := make([]*metrics.Histogram, len(cfg.Targets))
	for i := range targetHists {
		targetHists[i] = metrics.NewHistogram()
	}
	hist := metrics.NewHistogram()
	stats := make([]workerStats, cfg.Concurrency)
	var tickets atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		stats[i].shardReqs = make([]int, len(shardLabels))
		stats[i].shardDrops = make([]int, len(shardLabels))
		stats[i].targetReqs = make([]int, len(cfg.Targets))
		stats[i].targetDrops = make([]int, len(cfg.Targets))
		wg.Add(1)
		go func(ws *workerStats, worker int) {
			defer wg.Done()
			for {
				t := tickets.Add(1)
				if t > int64(cfg.Requests) || ctx.Err() != nil {
					return
				}
				// The ticket alone picks workload and target, so the split
				// holds whichever workers happen to run.
				workload := (int(t) - 1) % len(cfg.Workloads)
				target := (int(t) - 1) / len(cfg.Workloads) % len(clients)
				kind := kindRecommend
				switch draw := mixDraw(worker, t); {
				case draw < cfg.TrainFraction:
					kind = kindTrain
					ws.trains++
				case draw < cfg.TrainFraction+cfg.SubmitFraction:
					kind = kindSubmit
					ws.submits++
				default:
					ws.recommends++
				}
				ws.requests++
				ws.targetReqs[target]++
				if len(shardLabels) > 0 {
					ws.shardReqs[shardOf[workload]]++
				}
				t0 := time.Now()
				err := oneRequest(ctx, clients[target], cfg, cfg.Workloads[workload], kind, ws)
				if err != nil {
					ws.dropped++
					ws.targetDrops[target]++
					if len(shardLabels) > 0 {
						ws.shardDrops[shardOf[workload]]++
					}
					if ws.firstErr == "" {
						ws.firstErr = err.Error()
					}
					continue
				}
				lat := time.Since(t0).Seconds()
				hist.Observe(lat)
				targetHists[target].Observe(lat)
				if len(shardLabels) > 0 {
					shardHists[shardOf[workload]].Observe(lat)
				}
			}
		}(&stats[i], i)
	}
	wg.Wait()
	res := &Result{Elapsed: time.Since(start).Seconds(), Hist: hist}
	for s, label := range shardLabels {
		res.Shards = append(res.Shards, Breakdown{Label: label, Hist: shardHists[s]})
	}
	if len(cfg.Targets) > 1 {
		for t, url := range cfg.Targets {
			res.Targets = append(res.Targets, Breakdown{Label: url, Hist: targetHists[t]})
		}
	}
	for i := range stats {
		ws := &stats[i]
		res.Requests += ws.requests
		res.Submits += ws.submits
		res.Recommends += ws.recommends
		res.Trains += ws.trains
		res.Retries429 += ws.retries429
		res.Dropped += ws.dropped
		for s := range res.Shards {
			res.Shards[s].Requests += ws.shardReqs[s]
			res.Shards[s].Dropped += ws.shardDrops[s]
		}
		for t := range res.Targets {
			res.Targets[t].Requests += ws.targetReqs[t]
			res.Targets[t].Dropped += ws.targetDrops[t]
		}
		if res.FirstError == "" {
			res.FirstError = ws.firstErr
		}
	}
	return res, ctx.Err()
}

// oneRequest issues a single request, retrying admission rejections with
// the server's Retry-After hint.
func oneRequest(ctx context.Context, cl *client.Client, cfg Config, workload string, kind int, ws *workerStats) error {
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		var err error
		switch kind {
		case kindSubmit:
			_, err = cl.Submit(ctx, api.SubmitRequest{
				Workload:   workload,
				InputBytes: cfg.InputBytes,
				Shrink:     cfg.Shrink,
				Tuned:      cfg.Tuned,
				NoRecord:   cfg.NoRecord,
			})
		case kindTrain:
			shrink := cfg.Shrink
			if shrink <= 0 {
				shrink = 24
			}
			noRange := false
			_, err = cl.Train(ctx, api.TrainRequest{
				Workload:      workload,
				InputBytes:    cfg.InputBytes,
				Shrink:        shrink,
				SizeFractions: []float64{1.0},
				Partitions:    []int{150},
				Range:         &noRange,
			})
		default:
			_, err = cl.Recommend(ctx, workload, cfg.InputBytes)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		ae, ok := err.(*client.APIError)
		if !ok || ae.Status != 429 {
			return err
		}
		ws.retries429++
		backoff := ae.RetryAfter
		if backoff <= 0 {
			backoff = 50 * time.Millisecond
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return fmt.Errorf("loadgen: retries exhausted: %w", lastErr)
}
