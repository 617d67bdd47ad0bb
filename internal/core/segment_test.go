package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// segObs builds a distinguishable observation set.
func segObs(i int) []StageObservation {
	return []StageObservation{{
		Signature: "sig", Name: "stage", Partitioner: "hash",
		D: 1e6 * float64(i+1), P: 100, Texe: float64(i + 1), Sshuffle: 1e3,
	}}
}

// mustMarshal marshals a DB snapshot or fails the test.
func mustMarshal(t *testing.T, db *DB) []byte {
	t.Helper()
	data, err := db.marshalSnapshotWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReadSegmentAligned(t *testing.T) {
	base := filepath.Join(t.TempDir(), "p.db")
	st, db, err := OpenStore(base)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	st.Attach(db)
	for i := 0; i < 5; i++ {
		db.AddRun("wl", 1e9, segObs(i))
	}
	size := st.JournalSize()
	if size == 0 {
		t.Fatal("no journal bytes after appends")
	}

	// Tiny max: every chunk must end on a record boundary, and chaining
	// chunks reproduces the whole journal byte-for-byte.
	var got []byte
	for pos := int64(0); pos < size; {
		seg, end, err := st.ReadSegment(pos, 64)
		if err != nil {
			t.Fatal(err)
		}
		if end != size {
			t.Fatalf("journal size moved: %d != %d", end, size)
		}
		if len(seg) == 0 {
			// max smaller than one record: widen and retry.
			if seg, _, err = st.ReadSegment(pos, size); err != nil {
				t.Fatal(err)
			}
		}
		if seg[len(seg)-1] != '\n' {
			t.Fatalf("segment not record-aligned: %q", seg)
		}
		got = append(got, seg...)
		pos += int64(len(seg))
	}
	whole, _, err := st.ReadSegment(0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, whole) {
		t.Fatal("chunked segments differ from whole journal")
	}
	// Up-to-date reader gets an empty segment; a beyond-end offset errors.
	if seg, _, err := st.ReadSegment(size, 1<<20); err != nil || len(seg) != 0 {
		t.Fatalf("read at end: seg=%d err=%v", len(seg), err)
	}
	if _, _, err := st.ReadSegment(size+1, 1); err == nil {
		t.Fatal("offset beyond journal end must error")
	}
}

func TestEpochBumpsOnSnapshot(t *testing.T) {
	base := filepath.Join(t.TempDir(), "p.db")
	st, db, err := OpenStore(base)
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(db)
	if got := st.Epoch(); got != 1 {
		t.Fatalf("fresh store epoch = %d, want 1", got)
	}
	db.AddRun("wl", 1e9, segObs(0))
	if err := st.Snapshot(db); err != nil {
		t.Fatal(err)
	}
	if got := st.Epoch(); got != 2 {
		t.Fatalf("epoch after snapshot = %d, want 2", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The epoch survives a reopen via the meta sidecar.
	st2, _, err := OpenStore(base)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := st2.Epoch(); got != 2 {
		t.Fatalf("reopened epoch = %d, want 2", got)
	}
}

func TestAppendRawTracksPositionAndReplays(t *testing.T) {
	dir := t.TempDir()
	pst, pdb, err := OpenStore(filepath.Join(dir, "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	pst.Attach(pdb)
	for i := 0; i < 3; i++ {
		pdb.AddRun("wl", 1e9, segObs(i))
	}
	seg, _, err := pst.ReadSegment(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := pst.Close(); err != nil {
		t.Fatal(err)
	}

	rbase := filepath.Join(dir, "r.db")
	rst, rdb, err := OpenStore(rbase)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rst.AppendRaw(seg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("AppendRaw counted %d records, want 3", n)
	}
	if got := rst.JournalSize(); got != int64(len(seg)) {
		t.Fatalf("replica position %d != segment length %d", got, len(seg))
	}
	recs, consumed, err := ParseSegment(seg)
	if err != nil || consumed != int64(len(seg)) {
		t.Fatalf("ParseSegment: consumed %d err %v", consumed, err)
	}
	for _, rec := range recs {
		rdb.AddRun(rec.Workload, rec.InputBytes, rec.Obs)
	}
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopened replica recovers the same state from its raw-appended
	// journal alone.
	rst2, rdb2, err := OpenStore(rbase)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rst2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if !bytes.Equal(mustMarshal(t, rdb), mustMarshal(t, rdb2)) {
		t.Fatal("replayed replica state differs from applied state")
	}
	if !bytes.Equal(mustMarshal(t, rdb2), mustMarshal(t, pdb)) {
		t.Fatal("replica state differs from primary state")
	}
}

func TestInstallBootstrapRebuildsExactState(t *testing.T) {
	dir := t.TempDir()
	pst, pdb, err := OpenStore(filepath.Join(dir, "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	pst.Attach(pdb)
	// Snapshot-covered records plus journal-only ones: the bootstrap image
	// must carry both.
	pdb.AddRun("wl", 1e9, segObs(0))
	pdb.AddRun("wl", 1e9, segObs(1))
	if err := pst.Snapshot(pdb); err != nil {
		t.Fatal(err)
	}
	pdb.AddRun("wl", 1e9, segObs(2))
	snap, journal, epoch, err := pst.BootstrapData()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 || len(journal) == 0 {
		t.Fatalf("bootstrap image incomplete: snap=%d journal=%d", len(snap), len(journal))
	}
	if err := pst.Close(); err != nil {
		t.Fatal(err)
	}

	rst, _, err := OpenStore(filepath.Join(dir, "r.db"))
	if err != nil {
		t.Fatal(err)
	}
	rdb, err := rst.InstallBootstrap(snap, journal, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, rdb), mustMarshal(t, pdb)) {
		t.Fatal("bootstrapped replica state differs from primary")
	}
	if got := rst.Epoch(); got != epoch {
		t.Fatalf("replica epoch %d, want %d", got, epoch)
	}
	if got := rst.JournalSize(); got != int64(len(journal)) {
		t.Fatalf("replica position %d != bootstrap journal length %d", got, len(journal))
	}
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFracSamplesSurviveSnapshotRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "p.db")
	st, db, err := OpenStore(base)
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(db)
	db.AddRun("wl", 1e9, segObs(0))
	db.AddRun("wl", 1e9, segObs(1))
	if err := st.Snapshot(db); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db.SetObserver(nil) // the store is gone; keep mutating the in-memory copy
	st2, db2, err := OpenStore(base)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	// The third run lands on both with identical accumulation weights only
	// if FracSamples came through the snapshot.
	db.AddRun("wl", 1e9, segObs(2))
	db2.AddRun("wl", 1e9, segObs(2))
	a, b := db.Nodes("wl")[0], db2.Nodes("wl")[0]
	if a.FracSamples != b.FracSamples || a.InputFraction != b.InputFraction {
		t.Fatalf("accumulation diverged after snapshot round trip: (%d, %v) vs (%d, %v)",
			a.FracSamples, a.InputFraction, b.FracSamples, b.InputFraction)
	}

	// A duplicate raw delivery of an already-present suffix must be
	// detectable by position arithmetic (the replica's dedupe contract):
	// ParseSegment on a half-open window never double-counts.
	if _, err := os.Stat(base + ".meta"); err != nil {
		t.Fatalf("epoch meta sidecar missing: %v", err)
	}
}
