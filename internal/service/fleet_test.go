package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"chopper/api"
	"chopper/client"
)

// waitSynced polls a replica's /healthz until it has applied the whole
// journal of its (now quiescent) primary: the replica's replication epoch is
// the primary's and its position has reached the primary's journal size, both
// from the primary's /v1/repl/status. The replicator advances that position
// only after the shipped records went through AddRun, so from then on reads
// see them. Journal parity is not enough — a segment is journaled before it
// is applied — and neither is the lag gauge, which is measured against the
// primary size the replica's last poll saw.
func waitSynced(t *testing.T, cl *client.Client, primaryURL string) *api.Health {
	t.Helper()
	resp, err := http.Get(primaryURL + "/v1/repl/status")
	if err != nil {
		t.Fatalf("primary repl status: %v", err)
	}
	var ps api.ReplStatus
	err = json.NewDecoder(resp.Body).Decode(&ps)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("primary repl status: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		h, err := cl.Health(context.Background())
		if err == nil && h.Status == "ok" && h.ReplicationEpoch == ps.Epoch && h.ReplicationPos >= ps.JournalSize {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never applied the primary's journal (epoch %d, %d bytes); last health: %+v err=%v",
				ps.Epoch, ps.JournalSize, h, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaFollowsPrimary is the in-process fleet integration test: a
// primary daemon and a replica daemon wired over real HTTP, with the
// replica read-only, catching up via journal shipping, and answering
// recommendations byte-identical to the primary's.
func TestReplicaFollowsPrimary(t *testing.T) {
	dir := t.TempDir()
	psrv, pcl, _ := startTestServer(t, Config{
		StorePath: filepath.Join(dir, "p.db"),
		Role:      "primary",
		ShardID:   0, ShardCount: 1,
	})
	_, rcl, _ := startTestServer(t, Config{
		StorePath:  filepath.Join(dir, "r.db"),
		Role:       "replica",
		PrimaryURL: pcl.Base,
		ReplPoll:   20 * time.Millisecond,
		ShardID:    0, ShardCount: 1,
	})
	ctx := context.Background()

	// The replica refuses writes with 403, pointing at the primary.
	_, err := rcl.Train(ctx, api.TrainRequest{Workload: "kmeans"})
	if got := apiStatus(t, err); got != http.StatusForbidden {
		t.Fatalf("train on replica: status %d, want 403", got)
	}
	_, err = rcl.Submit(ctx, api.SubmitRequest{Workload: "kmeans"})
	if got := apiStatus(t, err); got != http.StatusForbidden {
		t.Fatalf("submit on replica: status %d, want 403", got)
	}

	smallTrain(t, pcl, "kmeans")
	h := waitSynced(t, rcl, pcl.Base)
	if h.Role != "replica" || h.ReplicationPos == 0 || h.ReplicationEpoch == 0 {
		t.Fatalf("replica health missing replication state: %+v", h)
	}
	ph, err := pcl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Role != "primary" {
		t.Fatalf("primary health role = %q", ph.Role)
	}

	// The answer a client gets must not depend on which daemon served it.
	// Asking both also leaves each holding a plan entry for kmeans, which
	// the records shipped below must invalidate on the replica too.
	same := func(when string) []byte {
		t.Helper()
		praw, err := pcl.RecommendRaw(ctx, "kmeans", 0)
		if err != nil {
			t.Fatal(err)
		}
		rraw, err := rcl.RecommendRaw(ctx, "kmeans", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(praw, rraw) {
			t.Fatalf("%s: replica recommendation differs from primary:\nprimary: %s\nreplica: %s", when, praw, rraw)
		}
		return praw
	}
	first := same("after catch-up")

	// More records arrive through the journal stream (Replicator -> AddRun).
	if _, err := pcl.Submit(ctx, api.SubmitRequest{Workload: "kmeans", Shrink: 24}); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, rcl, pcl.Base)
	second := same("after a shipped record")
	if bytes.Equal(first, second) {
		t.Fatal("a recorded submit did not change the recommendation body (run count)")
	}

	// Compaction on the primary bumps the epoch; the next record reaches the
	// replica through a bootstrap image (Replicator -> ReplaceAll).
	if err := psrv.store.Snapshot(psrv.db); err != nil {
		t.Fatal(err)
	}
	if _, err := pcl.Submit(ctx, api.SubmitRequest{Workload: "kmeans", Shrink: 24}); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, rcl, pcl.Base)
	if third := same("after a bootstrap"); bytes.Equal(second, third) {
		t.Fatal("the replica's answer did not move across the bootstrap swap")
	}

	// The replication lag gauge is exported on the replica.
	metrics, err := rcl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(metrics), []byte("chopperd_replication_lag_bytes")) {
		t.Fatal("replica /metrics missing chopperd_replication_lag_bytes")
	}
}

// TestReplicaConfigValidation pins the role plumbing's input checking.
func TestReplicaConfigValidation(t *testing.T) {
	if _, err := New(Config{Role: "replica"}); err == nil {
		t.Fatal("replica without store/primary must be rejected")
	}
	if _, err := New(Config{Role: "observer"}); err == nil {
		t.Fatal("unknown role must be rejected")
	}
}
