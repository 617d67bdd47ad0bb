package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"chopper/internal/core"
)

// fleetObs builds one distinguishable observation set; distinct i values
// keep the DB's order-sensitive accumulations honest.
func fleetObs(i int) []core.StageObservation {
	return []core.StageObservation{{
		Signature: "sig", Name: "stage", Partitioner: "hash",
		D: 1e6 * float64(i+1), P: float64(100 + i), Texe: float64(i + 1), Sshuffle: 1e3,
	}}
}

// newPrimary opens a primary store+DB under dir and serves its replication
// endpoints.
func newPrimary(t *testing.T, dir string) (*core.Store, *core.DB, *httptest.Server) {
	t.Helper()
	st, db, err := core.OpenStore(filepath.Join(dir, "primary.db"))
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(db)
	mux := http.NewServeMux()
	RegisterRepl(mux, st)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		if err := st.Close(); err != nil {
			t.Errorf("close primary store: %v", err)
		}
	})
	return st, db, srv
}

// newReplica opens a replica store+DB at base and builds its replicator.
func newReplica(t *testing.T, base, primaryURL string) (*core.Store, *core.DB, *Replicator) {
	t.Helper()
	st, db, err := core.OpenStore(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplicator(ReplicatorConfig{PrimaryURL: primaryURL, Store: st, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return st, db, rep
}

// snapshotBytes marshals a DB as its snapshot JSON or fails the test.
func snapshotBytes(t *testing.T, db *core.DB) []byte {
	t.Helper()
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertConverged checks the replica's served state is byte-identical to
// the primary's — which makes every recommendation byte-identical too,
// since the optimizer is a pure function of the DB.
func assertConverged(t *testing.T, pdb, rdb *core.DB) {
	t.Helper()
	if !bytes.Equal(snapshotBytes(t, pdb), snapshotBytes(t, rdb)) {
		t.Fatal("replica state differs from primary")
	}
}

func TestReplicaCatchUpFromEmptyStore(t *testing.T) {
	dir := t.TempDir()
	_, pdb, srv := newPrimary(t, dir)
	for i := 0; i < 5; i++ {
		pdb.AddRun("kmeans", 1e9, fleetObs(i))
	}
	rst, rdb, rep := newReplica(t, filepath.Join(dir, "replica.db"), srv.URL)
	defer func() {
		if err := rst.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, pdb, rdb)
	st := rep.Status()
	if !st.Synced || st.LagBytes != 0 {
		t.Fatalf("status after catch-up: %+v", st)
	}
}

func TestReplicaTornSegmentTailAppliesCompletePrefix(t *testing.T) {
	dir := t.TempDir()
	pst, pdb, srv := newPrimary(t, dir)
	for i := 0; i < 4; i++ {
		pdb.AddRun("pca", 1e9, fleetObs(i))
	}
	rst, rdb, rep := newReplica(t, filepath.Join(dir, "replica.db"), srv.URL)
	defer func() {
		if err := rst.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	// A transfer cut mid-record: only the complete prefix may apply, and the
	// position must stop at its end so the tail is re-pulled, not skipped.
	seg, _, err := pst.ReadSegment(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	torn := seg[:len(seg)-10]
	if torn[len(torn)-1] == '\n' {
		t.Fatal("test cut landed on a record boundary; pick a different offset")
	}
	if err := rep.applySegment(torn, 0); err != nil {
		t.Fatal(err)
	}
	pos, _ := rep.position()
	if pos >= int64(len(seg)) || pos <= 0 {
		t.Fatalf("position after torn apply = %d, want a proper prefix of %d", pos, len(seg))
	}
	if pos != rst.JournalSize() {
		t.Fatalf("position %d diverges from journaled bytes %d", pos, rst.JournalSize())
	}
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, pdb, rdb)
}

func TestReplicaDuplicateSegmentDeliveryIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	pst, pdb, srv := newPrimary(t, dir)
	for i := 0; i < 3; i++ {
		pdb.AddRun("sql", 1e9, fleetObs(i))
	}
	rst, rdb, rep := newReplica(t, filepath.Join(dir, "replica.db"), srv.URL)
	defer func() {
		if err := rst.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, rdb)
	pos, _ := rep.position()
	// Redeliver the whole stream from offset 0, and again overlapping the
	// midpoint: both must be no-ops — every record ends at or below the
	// replica's position.
	seg, _, err := pst.ReadSegment(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.applySegment(seg, 0); err != nil {
		t.Fatal(err)
	}
	mid := bytes.IndexByte(seg, '\n') + 1
	if err := rep.applySegment(seg[mid:], int64(mid)); err != nil {
		t.Fatal(err)
	}
	if got, _ := rep.position(); got != pos {
		t.Fatalf("position moved on duplicate delivery: %d -> %d", pos, got)
	}
	if !bytes.Equal(want, snapshotBytes(t, rdb)) {
		t.Fatal("duplicate delivery changed replica state")
	}
	assertConverged(t, pdb, rdb)
}

// TestReplicaCrashRecoveryFromTornJournal kills the replica mid-append
// (simulated by truncating its journal mid-record), restarts it from disk,
// and verifies it resumes from its last durable record and converges.
func TestReplicaCrashRecoveryFromTornJournal(t *testing.T) {
	dir := t.TempDir()
	_, pdb, srv := newPrimary(t, dir)
	for i := 0; i < 4; i++ {
		pdb.AddRun("pagerank", 1e9, fleetObs(i))
	}
	rbase := filepath.Join(dir, "replica.db")
	rst, _, rep := newReplica(t, rbase, srv.URL)
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the journal tail crash-style: the torn fragment was never
	// position-acknowledged upstream of a completed AppendRaw, so recovery
	// truncates it and the replicator resumes at the durable prefix.
	jp := rbase + ".journal"
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	rst2, rdb2, rep2 := newReplica(t, rbase, srv.URL)
	defer func() {
		if err := rst2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	pos, _ := rep2.position()
	if pos >= int64(len(data)) || pos <= 0 {
		t.Fatalf("restart position = %d, want a proper prefix of %d", pos, len(data))
	}
	// More writes land on the primary while the replica was down.
	pdb.AddRun("pagerank", 1e9, fleetObs(9))
	if err := rep2.pullOnce(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, pdb, rdb2)
	if st := rep2.Status(); !st.Synced || st.LagBytes != 0 {
		t.Fatalf("status after crash recovery: %+v", st)
	}
}

// TestReplicaBootstrapsAfterPrimaryCompaction covers the epoch protocol: a
// primary snapshot truncates the journal and bumps the epoch, so a synced
// replica's offsets go stale and it must reinstall the full image.
func TestReplicaBootstrapsAfterPrimaryCompaction(t *testing.T) {
	dir := t.TempDir()
	pst, pdb, srv := newPrimary(t, dir)
	for i := 0; i < 3; i++ {
		pdb.AddRun("kmeans", 1e9, fleetObs(i))
	}
	rst, rdb, rep := newReplica(t, filepath.Join(dir, "replica.db"), srv.URL)
	defer func() {
		if err := rst.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	// What a reader holding a snapshot of the replica DB would compare
	// against: the swap below must move it, for written workloads and for
	// ones the image does not hold alike.
	kmeans, absent := rdb.Generation("kmeans"), rdb.Generation("pca")
	// Compaction on the primary: journal truncates, epoch bumps, and new
	// runs land in the fresh stream at offsets the replica already passed.
	if err := pst.Snapshot(pdb); err != nil {
		t.Fatal(err)
	}
	pdb.AddRun("kmeans", 1e9, fleetObs(7))
	if err := rep.pullOnce(); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, pdb, rdb)
	if rdb.Generation("kmeans") == kmeans || rdb.Generation("pca") == absent {
		t.Fatal("bootstrap swap left a workload generation in place; readers would keep serving the old image")
	}
	if _, epoch := rep.position(); epoch != pst.Epoch() {
		t.Fatalf("replica epoch %d, want %d", epoch, pst.Epoch())
	}
	// The bootstrap must also be durable: the same state survives a replica
	// restart without re-contacting the primary.
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}
	st3, rdb3, err := core.OpenStore(filepath.Join(dir, "replica.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st3.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	assertConverged(t, pdb, rdb3)
}
