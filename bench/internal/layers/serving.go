package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"chopper/api"
	"chopper/bench/internal/loads"
	"chopper/bench/internal/stats"
	"chopper/internal/fleet"
	"chopper/internal/service"
)

// servingLayers probes service, client + net/http, and fleet.
func (p *prober) servingLayers() error {
	if err := p.serviceLayer(); err != nil {
		return err
	}
	return p.fleetLayer()
}

// serviceLayer calls the daemon's handlers directly (no network), then the
// same recommend through the typed client over one loopback connection.
func (p *prober) serviceLayer() error {
	store := filepath.Join(p.dir, "service", "profiles.db")
	if err := loads.CopyStore(p.trainedBase(), store); err != nil {
		return err
	}
	d, err := loads.StartDaemon(service.Config{StorePath: store, Workers: 2})
	if err != nil {
		return err
	}
	h := d.Srv.Handler()
	var lastBody []byte
	call := func(method, target, body string) func() {
		return func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
			p.ops.Check(rec.Code == http.StatusOK)
			lastBody = rec.Body.Bytes()
		}
	}
	p.out["service.recommend_handler_us"] = p.fast("service.recommend_handler_us", call("GET", "/v1/recommend?workload=sql", "")) / 1e3
	var resp api.RecommendResponse
	if err := json.Unmarshal(lastBody, &resp); err != nil {
		return fmt.Errorf("recommend body: %w", err)
	}
	encode := p.fast("service.encode", func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp) // io.Discard cannot fail
	}) / 1e3
	// What the handler spends outside the store and the optimizer: mux,
	// query parsing, instrumentation, response plumbing.
	p.out["service.self_us"] = p.out["service.recommend_handler_us"] - p.out["core.clone_us"] - p.out["core.generate_config_us.sql"] - encode
	p.out["service.explain_handler_us"] = p.fast("service.explain_handler_us", call("GET", "/v1/explain?workload=sql", "")) / 1e3
	p.out["service.metrics_scrape_us"] = p.fast("service.metrics_scrape_us", call("GET", "/metrics", "")) / 1e3
	submit := fmt.Sprintf(`{"workload":"sql","shrink":%d}`, loads.TuneShrink)
	p.out["service.submit_handler_ms"] = p.slow("service.submit_handler_ms", 400*time.Millisecond, call("POST", "/v1/jobs", submit)) / 1e6

	cl, tr := loads.OneConn(d.URL)
	p.out["client.recommend_rtt_us"] = p.fast("client.recommend_rtt_us", func() {
		_, rerr := cl.RecommendRaw(context.Background(), "sql", 0)
		p.ops.Check(rerr == nil)
	}) / 1e3
	// The submits above grew the sql data, so re-time the handler on the
	// same state before taking the difference.
	handler := p.fast("service.recommend_handler_us.after", call("GET", "/v1/recommend?workload=sql", "")) / 1e3
	p.out["client.http_overhead_us"] = p.out["client.recommend_rtt_us"] - handler
	tr.CloseIdleConnections()
	return d.Stop()
}

// fleetLayer boots the fleet-write topology and times the router hop, the
// shard hash, and how far and how long the replica trails a write.
func (p *prober) fleetLayer() error {
	fl, err := loads.StartFleet(p.trainedBase(), p.dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	routed, rtr := loads.OneConn(fl.RouterURL)
	direct, dtr := loads.OneConn(fl.Replica.URL) // where the router sends reads
	rtt := func(name string, get func() ([]byte, error)) float64 {
		return p.fast(name, func() {
			_, rerr := get()
			p.ops.Check(rerr == nil)
		}) / 1e3
	}
	viaRouter := rtt("fleet.routed_rtt", func() ([]byte, error) { return routed.RecommendRaw(ctx, "kmeans", 0) })
	viaDirect := rtt("fleet.direct_rtt", func() ([]byte, error) { return direct.RecommendRaw(ctx, "kmeans", 0) })
	p.out["fleet.router_hop_us"] = viaRouter - viaDirect

	const batch = 10_000
	shards := 0
	p.out["fleet.shardfor_ns"] = p.fast("fleet.shardfor_ns", func() {
		for i := 0; i < batch; i++ {
			shards += fleet.ShardFor(loads.Builtins[i%len(loads.Builtins)], 4)
		}
	}) / batch
	p.ops.Check(shards > 0)

	// After each acknowledged write: read it back through the router at
	// once, then watch the replica's journal file reach the primary's size.
	size := func(base string) int64 {
		fi, serr := os.Stat(base + ".journal")
		if serr != nil {
			return 0
		}
		return fi.Size()
	}
	var catchup, readBack []float64
	lagMax := int64(0)
	root := p.tr.Start("probe:fleet.write", 0, 0)
	for i := 0; i < 6; i++ {
		id := p.tr.Start("fleet.submit", root, int64(i))
		res, serr := routed.Submit(ctx, api.SubmitRequest{Workload: "sql", Shrink: loads.TuneShrink})
		p.tr.End(id)
		ack := time.Now()
		p.ops.Check(serr == nil && res.Recorded)
		want := size(fl.PrimaryStore)
		id = p.tr.Start("fleet.read_after_write", root, int64(i))
		_, rerr := routed.RecommendRaw(ctx, "sql", 0)
		readBack = append(readBack, float64(time.Since(ack).Nanoseconds()))
		p.tr.End(id)
		p.ops.Check(rerr == nil)
		id = p.tr.Start("fleet.repl_catchup", root, int64(i))
		for deadline := ack.Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			have := size(fl.ReplicaStore)
			lagMax = max(lagMax, want-have)
			if have >= want {
				break
			}
		}
		p.tr.End(id)
		catchup = append(catchup, float64(time.Since(ack).Nanoseconds()))
	}
	p.tr.End(root)
	p.out["fleet.repl_catchup_ms"] = stats.P10(catchup) / 1e6
	p.out["fleet.repl_lag_b_max"] = float64(lagMax)
	p.out["fleet.read_after_write_p50_us"] = stats.Median(readBack) / 1e3

	// The stream the replica copied must be the primary's, byte for byte.
	pj, perr := os.ReadFile(fl.PrimaryStore + ".journal")
	rj, rerr := os.ReadFile(fl.ReplicaStore + ".journal")
	p.ops.Check(perr == nil && rerr == nil && bytes.HasPrefix(pj, rj))
	rtr.CloseIdleConnections()
	dtr.CloseIdleConnections()
	return fl.Stop()
}
