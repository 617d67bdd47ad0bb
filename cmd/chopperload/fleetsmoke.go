package main

// The fleet smoke harness: spawns a real 2-shard fleet (two primary
// chopperd processes plus one replica of shard 0) from a chopperd binary,
// fronts it with an in-process fleet router, and proves the deployment
// contract CI gates on — writes land on the owning primary, the replica
// converges by journal shipping, a SIGKILLed replica costs zero
// client-visible errors mid-load, and after a restart the replica catches
// up from its last durable position to byte-identical recommendations.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"chopper/api"
	"chopper/client"
	"chopper/internal/fleet"
	"chopper/internal/fleetproc"
	"chopper/internal/loadgen"
)

// fstep logs one fleet-smoke phase.
func fstep(format string, args ...any) {
	fmt.Printf("chopperload: fleet-smoke: "+format+"\n", args...)
}

// trainVia runs the cheap training grid for workload through cl.
func trainVia(ctx context.Context, cl *client.Client, workload string) error {
	noRange := false
	_, err := cl.Train(ctx, api.TrainRequest{
		Workload:      workload,
		Shrink:        24,
		SizeFractions: []float64{0.5, 1.0},
		Partitions:    []int{150, 300},
		Range:         &noRange,
	})
	return err
}

// waitReplicaSynced polls a replica's /healthz until it reports a fully
// caught-up stream.
func waitReplicaSynced(ctx context.Context, addr string) error {
	cl := client.New(addr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := cl.Health(ctx)
		if err == nil && h.Status == "ok" && h.ReplicationSynced && h.ReplicationLagBytes == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s never synced (last health: %+v, err %v)", addr, h, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// runFleetSmoke is the fleet CI gate sequence.
func runFleetSmoke(ctx context.Context, binary string) error {
	if binary == "" {
		return fmt.Errorf("-fleet-smoke needs -chopperd <binary>")
	}
	dir, err := os.MkdirTemp("", "chopper-fleet-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Workload placement on the 2-shard ring is pinned by the fleet tests:
	// sql → shard 0 (the replicated shard), kmeans → shard 1.
	const wl0, wl1 = "sql", "kmeans"
	if fleet.ShardFor(wl0, 2) != 0 || fleet.ShardFor(wl1, 2) != 1 {
		return fmt.Errorf("workload placement drifted: %s on shard %d, %s on shard %d",
			wl0, fleet.ShardFor(wl0, 2), wl1, fleet.ShardFor(wl1, 2))
	}

	fstep("starting 2 shard primaries")
	p0, err := fleetproc.Start(ctx, binary,
		"-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "shard0.db"),
		"-role", "primary", "-shard-id", "0", "-shard-count", "2")
	if err != nil {
		return err
	}
	defer func() { _ = p0.Kill() }() // best effort; already gone after a drain
	p1, err := fleetproc.Start(ctx, binary,
		"-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "shard1.db"),
		"-role", "primary", "-shard-id", "1", "-shard-count", "2")
	if err != nil {
		return err
	}
	defer func() { _ = p1.Kill() }()

	replicaStore := filepath.Join(dir, "shard0-replica.db")
	startReplica := func(addr string) (*fleetproc.Daemon, error) {
		return fleetproc.Start(ctx, binary,
			"-addr", addr, "-store", replicaStore,
			"-role", "replica", "-shard-id", "0", "-shard-count", "2",
			"-primary", p0.Addr, "-repl-poll", "50ms")
	}
	fstep("starting 1 replica of shard 0")
	r0, err := startReplica("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = r0.Kill() }()
	// The replica keeps this host:port across its restart so the router's
	// static topology reacquires it.
	replicaHostPort := strings.TrimPrefix(r0.Addr, "http://")

	topo := fleet.Topology{Shards: []fleet.Shard{
		{Primary: p0.Addr, Replicas: []string{r0.Addr}},
		{Primary: p1.Addr},
	}}
	router, err := fleet.NewRouter(fleet.RouterConfig{Topology: topo, ProbeInterval: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	routerDone := make(chan struct{})
	go func() {
		defer close(routerDone)
		router.Run(stop)
	}()
	httpSrv := &http.Server{Handler: router.Handler()}
	go func() { _ = httpSrv.Serve(ln) }() // ends via Close below
	defer func() {
		_ = httpSrv.Close()
		close(stop)
		<-routerDone
	}()
	routerURL := "http://" + ln.Addr().String()
	fstep("router at %s fronting 2 shards", routerURL)
	rcl := client.New(routerURL)

	fstep("training %s and %s through the router", wl0, wl1)
	if err := trainVia(ctx, rcl, wl0); err != nil {
		return fmt.Errorf("train %s via router: %w", wl0, err)
	}
	if err := trainVia(ctx, rcl, wl1); err != nil {
		return fmt.Errorf("train %s via router: %w", wl1, err)
	}

	// Each primary must own exactly its shard's workload — proof the router
	// fanned the writes by hash, not round-robin.
	for _, check := range []struct {
		addr, owns, foreign string
	}{{p0.Addr, wl0, wl1}, {p1.Addr, wl1, wl0}} {
		wls, err := client.New(check.addr).Workloads(ctx)
		if err != nil {
			return err
		}
		runs := map[string]int{}
		for _, info := range wls.Workloads {
			runs[info.Name] = info.Runs
		}
		if runs[check.owns] == 0 || runs[check.foreign] != 0 {
			return fmt.Errorf("%s owns %s but has runs %v", check.addr, check.owns, runs)
		}
	}
	// The merged fleet view shows both workloads trained. The router may
	// read a shard from its replica, which pulls the records a moment after
	// the primary acknowledged them, so the view converges: poll it.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		merged, err := rcl.Workloads(ctx)
		if err != nil {
			return fmt.Errorf("merged workloads: %w", err)
		}
		missing := ""
		for _, want := range []string{wl0, wl1} {
			found := false
			for _, info := range merged.Workloads {
				found = found || (info.Name == want && info.Runs > 0)
			}
			if !found {
				missing = want
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("merged /v1/workloads missing trained %s: %+v", missing, merged.Workloads)
		}
	}
	fstep("writes landed on owning primaries; merged workload view ok")

	fstep("waiting for replica catch-up")
	if err := waitReplicaSynced(ctx, r0.Addr); err != nil {
		return err
	}

	// Read load across both shards through the router, with the replica
	// SIGKILLed mid-load: a dead replica may cost the router one internal
	// retry, never a client-visible error.
	const loadRequests = 6000
	fstep("read load (%d requests) with mid-load replica SIGKILL", loadRequests)
	loadStart := time.Now()
	loadDone := make(chan *loadgen.Result, 1)
	loadErr := make(chan error, 1)
	go func() {
		res, err := loadgen.Run(ctx, loadgen.Config{
			Targets:        []string{routerURL},
			Workloads:      []string{wl0, wl1},
			ShardCount:     2,
			Concurrency:    8,
			Requests:       loadRequests,
			SubmitFraction: 0, // reads only; writes would mutate the stores mid-comparison
		})
		loadDone <- res
		loadErr <- err
	}()
	time.Sleep(150 * time.Millisecond)
	if err := r0.Kill(); err != nil {
		return fmt.Errorf("kill replica: %w", err)
	}
	killedAt := time.Since(loadStart).Seconds()
	res := <-loadDone
	if err := <-loadErr; err != nil {
		return fmt.Errorf("fleet load: %w", err)
	}
	fstep("load: %s", res)
	if b := res.BreakdownString(); b != "" {
		fmt.Println(b)
	}
	if res.Dropped > 0 {
		return fmt.Errorf("%d routing errors surfaced to clients after replica kill (first: %s)", res.Dropped, res.FirstError)
	}
	if res.Elapsed <= killedAt {
		return fmt.Errorf("load finished (%.2fs) before the replica kill (%.2fs) — not a mid-load crash", res.Elapsed, killedAt)
	}
	fstep("zero client-visible errors across the replica crash")

	// Advance shard 0's journal while its replica is down, then restart the
	// replica: it must resume from its last durable position and converge.
	fstep("training more %s while the replica is down", wl0)
	if err := trainVia(ctx, rcl, wl0); err != nil {
		return fmt.Errorf("train with dead replica: %w", err)
	}
	fstep("restarting the replica at %s (catch-up from durable position)", replicaHostPort)
	r0, err = startReplica(replicaHostPort)
	if err != nil {
		return fmt.Errorf("restart replica: %w", err)
	}
	defer func() { _ = r0.Kill() }()
	if err := waitReplicaSynced(ctx, r0.Addr); err != nil {
		return err
	}

	// The caught-up replica answers byte-identically to its primary.
	praw, err := client.New(p0.Addr).RecommendRaw(ctx, wl0, 0)
	if err != nil {
		return err
	}
	rraw, err := client.New(r0.Addr).RecommendRaw(ctx, wl0, 0)
	if err != nil {
		return err
	}
	if !bytes.Equal(praw, rraw) {
		return fmt.Errorf("replica recommendation differs from primary after catch-up:\nprimary: %s\nreplica: %s", praw, rraw)
	}
	fstep("replica recommendation byte-identical to primary after catch-up")

	// The router's next probes must reacquire the restarted replica and
	// report a fully live fleet.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var rh api.RouterHealth
		resp, err := http.Get(routerURL + "/healthz")
		if err == nil {
			err = decodeJSON(resp, &rh)
		}
		if err == nil && rh.Status == "ok" && allBackendsReady(rh) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router never reacquired the fleet (last: %+v, err %v)", rh, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	fstep("router healthz: all backends live and ready")

	fstep("draining the fleet")
	if err := r0.Drain(); err != nil {
		return fmt.Errorf("drain replica: %w", err)
	}
	for _, p := range []*fleetproc.Daemon{p0, p1} {
		if err := p.Drain(); err != nil {
			return fmt.Errorf("drain primary: %w", err)
		}
	}
	return nil
}

// decodeJSON reads one JSON response body.
func decodeJSON(resp *http.Response, v any) error {
	defer func() { _ = resp.Body.Close() }() // decoded below
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// allBackendsReady reports whether every backend in the fleet view is live
// and serving reads.
func allBackendsReady(rh api.RouterHealth) bool {
	for _, sh := range rh.Shards {
		for _, b := range sh.Backends {
			if !b.Live || !b.Ready {
				return false
			}
		}
	}
	return true
}
