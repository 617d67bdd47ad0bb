package loads

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chopper/api"
	"chopper/bench/internal/harness"
	"chopper/bench/internal/span"
	"chopper/client"
	"chopper/internal/fleet"
	"chopper/internal/service"
)

const (
	fleetSubmits      = 6 // recorded submits per round
	fleetReadsPer     = 5 // recommends after each submit
	fleetSubmitShrink = 12
	fleetReplPoll     = 20 * time.Millisecond
)

// fleetReads are the workloads read beside the writes. They are never
// written, so their answers stay fixed while the sql journal grows.
var fleetReads = []string{"kmeans", "pca"}

// Fleet is one shard behind a router: a durable primary with fsync on
// every append, and one durable replica pulling its journal.
type Fleet struct {
	Primary, Replica *Daemon
	PrimaryStore     string
	ReplicaStore     string
	RouterURL        string
	router           *http.Server
	stopProbe        chan struct{}
	wg               sync.WaitGroup
	dir              string
}

// StartFleet copies the trained store image under a new temp dir in root,
// boots primary, replica and router, and waits until the router sends
// reads to the caught-up replica.
func StartFleet(trainedBase, root string) (*Fleet, error) {
	dir, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		dir:          dir,
		PrimaryStore: filepath.Join(dir, "primary", "profiles.db"),
		ReplicaStore: filepath.Join(dir, "replica", "profiles.db"),
		stopProbe:    make(chan struct{}),
	}
	if err := CopyStore(trainedBase, f.PrimaryStore); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(f.ReplicaStore), 0o755); err != nil {
		return nil, err
	}
	sync := true
	f.Primary, err = StartDaemon(service.Config{
		StorePath: f.PrimaryStore, Role: "primary", ShardCount: 1, Workers: 2,
		Shrink: fleetSubmitShrink, SyncAppends: &sync,
	})
	if err != nil {
		return nil, err
	}
	f.Replica, err = StartDaemon(service.Config{
		StorePath: f.ReplicaStore, Role: "replica", ShardCount: 1, Workers: 2,
		PrimaryURL: f.Primary.URL, ReplPoll: fleetReplPoll,
	})
	if err != nil {
		return nil, err
	}
	router, err := fleet.NewRouter(fleet.RouterConfig{
		Topology:      fleet.Topology{Shards: []fleet.Shard{{Primary: f.Primary.URL, Replicas: []string{f.Replica.URL}}}},
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.RouterURL = "http://" + ln.Addr().String()
	f.router = &http.Server{Handler: router.Handler()}
	f.wg.Add(2)
	go func() {
		defer f.wg.Done()
		router.Run(f.stopProbe)
	}()
	go func() {
		defer f.wg.Done()
		_ = f.router.Serve(ln) // returns ErrServerClosed on Stop
	}()
	if err := f.awaitReplicaReady(); err != nil {
		return nil, err
	}
	return f, nil
}

// awaitReplicaReady polls the router's health view until it reports the
// replica live and ready (synced), which is when reads start landing on it.
func (f *Fleet) awaitReplicaReady() error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if routerSeesReplica(hc, f.RouterURL) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("loads: replica %s not ready after 30s", f.Replica.URL)
}

func routerSeesReplica(hc *http.Client, routerURL string) bool {
	resp, err := hc.Get(routerURL + "/healthz")
	if err != nil {
		return false
	}
	defer func() { _ = resp.Body.Close() }() // read-only body
	var h api.RouterHealth
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return false
	}
	for _, sh := range h.Shards {
		for _, b := range sh.Backends {
			if b.Role == "replica" && b.Live && b.Ready {
				return true
			}
		}
	}
	return false
}

// Stop shuts the fleet down and removes its stores.
func (f *Fleet) Stop() error {
	close(f.stopProbe)
	err := f.router.Close()
	f.wg.Wait()
	// The router and the replicator use http.DefaultTransport. A connection
	// it dialled but never used sits in the daemon as "new", and a graceful
	// Shutdown waits five seconds before treating such a connection as idle.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	if rerr := f.Replica.Stop(); err == nil {
		err = rerr
	}
	if perr := f.Primary.Stop(); err == nil {
		err = perr
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// FleetWrite is the write-beside-read workload through the fleet router.
type FleetWrite struct {
	dir  string
	base string
}

// NewFleetWrite returns the fleet-write workload.
func NewFleetWrite() *FleetWrite { return &FleetWrite{} }

// Name implements harness.Workload.
func (f *FleetWrite) Name() string { return "fleet-write" }

// TailQ implements harness.Workload: eight submits per round leave nothing
// beyond any tail percentile, so op_tail_ms is the round's median too.
func (f *FleetWrite) TailQ() float64 { return 0.5 }

// Fixture implements harness.Workload.
func (f *FleetWrite) Fixture(seed int64, dir string) error {
	f.dir = dir
	f.base = filepath.Join(dir, "trained", "profiles.db")
	if err := os.MkdirAll(filepath.Dir(f.base), 0o755); err != nil {
		return err
	}
	_, err := TrainStore(seed, f.base)
	return err
}

// Setup implements harness.Workload.
func (f *FleetWrite) Setup() (harness.Instance, error) {
	fl, err := StartFleet(f.base, f.dir)
	if err != nil {
		return nil, err
	}
	inst := &FleetInst{F: fl, First: map[string][]byte{}}
	inst.cl, inst.tr = OneConn(fl.RouterURL)
	inst.primary, inst.primaryTr = OneConn(fl.Primary.URL)
	h, err := inst.primary.Health(context.Background())
	if err != nil {
		_ = inst.Close(&harness.Ops{}) // the health error is the one to report
		return nil, err
	}
	inst.records = h.JournalRecords
	for _, w := range fleetReads {
		body, err := inst.cl.RecommendRaw(context.Background(), w, 0)
		if err != nil {
			_ = inst.Close(&harness.Ops{}) // the request error is the one to report
			return nil, fmt.Errorf("loads: fleet-write reference %s: %w", w, err)
		}
		inst.First[w] = body
	}
	return inst, nil
}

// FleetInst is a running fleet-write set-up.
type FleetInst struct {
	F         *Fleet
	First     map[string][]byte // reference recommend body per read workload
	cl        *client.Client    // through the router
	tr        *http.Transport
	primary   *client.Client // direct, for the journal-record check
	primaryTr *http.Transport
	records   int // primary JournalRecords expected before the next submit
}

// Round implements harness.Instance: one client, strictly sequential.
func (f *FleetInst) Round(ops *harness.Ops, tr *span.Recorder, parent int) error {
	ctx := context.Background()
	for s := 0; s < fleetSubmits; s++ {
		id := tr.Start("fleet.submit", parent, int64(s))
		t0 := time.Now()
		resp, err := f.cl.Submit(ctx, api.SubmitRequest{Workload: "sql", Shrink: fleetSubmitShrink})
		lat := time.Since(t0)
		tr.End(id)
		ops.Op(lat, err == nil && resp.Recorded)
		for r := 0; r < fleetReadsPer; r++ {
			w := fleetReads[(s*fleetReadsPer+r)%len(fleetReads)]
			id := tr.Start("fleet.recommend", parent, int64(s))
			body, err := f.cl.RecommendRaw(ctx, w, 0)
			tr.End(id)
			ops.Check(err == nil && bytes.Equal(body, f.First[w]))
		}
	}
	// Each recorded submit must have journaled exactly one record.
	h, err := f.primary.Health(ctx)
	f.records += fleetSubmits
	ops.Check(err == nil && h.JournalRecords == f.records)
	if err == nil {
		f.records = h.JournalRecords
	}
	return nil
}

// Close implements harness.Instance: the replica must converge on a
// byte-identical journal and give byte-identical answers, then everything
// stops.
func (f *FleetInst) Close(ops *harness.Ops) error {
	ops.Check(f.converged())
	f.tr.CloseIdleConnections()
	f.primaryTr.CloseIdleConnections()
	return f.F.Stop()
}

// converged polls until the replica's journal file equals the primary's
// and both answer a recommend of the written workload with the same bytes.
// On the way there the replica's journal must always be a byte prefix of
// the primary's; anything else is a fork and fails at once.
func (f *FleetInst) converged() bool {
	ctx := context.Background()
	replica, rtr := OneConn(f.F.Replica.URL)
	defer rtr.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		pj, perr := os.ReadFile(f.F.PrimaryStore + ".journal")
		rj, rerr := os.ReadFile(f.F.ReplicaStore + ".journal")
		if perr != nil || rerr != nil {
			return false
		}
		if !bytes.HasPrefix(pj, rj) {
			return false
		}
		if len(pj) != len(rj) {
			continue
		}
		a, aerr := f.primary.RecommendRaw(ctx, "sql", 0)
		b, berr := replica.RecommendRaw(ctx, "sql", 0)
		if aerr != nil || berr != nil {
			return false
		}
		if bytes.Equal(a, b) {
			return true
		}
	}
	return false
}
