package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Replication support on the Store: primaries export their journal as
// position-stamped byte segments and a bootstrap image (disk snapshot +
// journal), replicas import raw segments with AppendRaw and whole images
// with InstallBootstrap. Positions are byte offsets into the journal of one
// *epoch* — the journal stream between two truncations. Every truncation
// (a snapshot commit, or an InstallBootstrap) starts a new epoch, persisted
// in a sidecar meta file, so a replica can tell "the stream I was copying
// continues" apart from "the primary compacted; my offsets are meaningless,
// bootstrap again".
//
// The invariant the protocol rests on: within one epoch, the journal is an
// append-only byte stream whose complete-line prefixes are identical on
// every node that copies it. A replica's durable position is therefore just
// its own journal size, and the torn-tail truncation in OpenStore doubles
// as crash recovery for a replica killed mid-append.

// storeMeta is the sidecar journal-epoch record (base+".meta").
type storeMeta struct {
	Epoch int64 `json:"epoch"`
}

// metaPath is the epoch sidecar file derived from the snapshot base path.
func (s *Store) metaPath() string { return s.base + ".meta" }

// loadEpoch reads the sidecar meta; a missing file is epoch 1 (the first
// stream), persisted lazily on the first change.
func loadEpoch(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, fmt.Errorf("core: store: read meta: %w", err)
	}
	var m storeMeta
	if err := json.Unmarshal(data, &m); err != nil || m.Epoch <= 0 {
		return 0, fmt.Errorf("core: store: corrupt meta %s", path)
	}
	return m.Epoch, nil
}

// writeEpoch persists the epoch durably (temp + fsync + rename).
func writeEpoch(path string, epoch int64) error {
	data, err := json.Marshal(storeMeta{Epoch: epoch})
	if err != nil {
		return fmt.Errorf("core: store: marshal meta: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: store: meta temp: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("core: store: write meta: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("core: store: publish meta: %w", err)
	}
	return nil
}

// Epoch reports the journal stream identity. Segment offsets are only
// comparable between stores reporting the same epoch.
func (s *Store) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *Store) setEpochLocked(epoch int64) error {
	if epoch <= 0 {
		return fmt.Errorf("core: store: bad epoch %d", epoch)
	}
	if err := writeEpoch(s.metaPath(), epoch); err != nil {
		return err
	}
	s.epoch = epoch
	return nil
}

// JournalSize reports the acknowledged journal byte length — the position a
// replica that copied everything would be at.
func (s *Store) JournalSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// ReadSegment returns journal bytes [from, from+max) trimmed back to the
// last complete record boundary, plus the journal size at read time. An
// up-to-date replica gets (nil, size, nil). Offsets beyond the journal
// mean the caller's epoch assumption is stale — it should re-check Epoch
// and bootstrap.
func (s *Store) ReadSegment(from, max int64) ([]byte, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, fmt.Errorf("core: store: segment read after close")
	}
	if from < 0 || max <= 0 {
		return nil, 0, fmt.Errorf("core: store: bad segment range from=%d max=%d", from, max)
	}
	if from > s.size {
		return nil, s.size, fmt.Errorf("core: store: segment offset %d beyond journal end %d (stale epoch?)", from, s.size)
	}
	if from == s.size {
		return nil, s.size, nil
	}
	if err := s.w.Flush(); err != nil {
		return nil, 0, fmt.Errorf("core: store: flush journal: %w", err)
	}
	want := s.size - from
	if want > max {
		want = max
	}
	buf := make([]byte, want)
	f, err := os.Open(s.journalPath())
	if err != nil {
		return nil, 0, fmt.Errorf("core: store: open journal for segment: %w", err)
	}
	n, rerr := f.ReadAt(buf, from)
	_ = f.Close() // read-only handle; nothing to flush
	if rerr != nil && int64(n) < want {
		return nil, 0, fmt.Errorf("core: store: read segment: %w", rerr)
	}
	// Trim back to the last complete line so every shipped segment is
	// record-aligned; a mid-record cut would desync the replica's line
	// parser from its byte position.
	if cut := bytes.LastIndexByte(buf, '\n'); cut < 0 {
		buf = nil
	} else {
		buf = buf[:cut+1]
	}
	return buf, s.size, nil
}

// BootstrapData exports a consistent full image: the on-disk snapshot (nil
// when none has ever been written), the complete journal, and the epoch
// they belong to. Snapshot + journal replay reconstructs the exact DB
// state, and the journal length is the position to resume segment pulls
// from. Held under the store lock so a concurrent snapshot commit cannot
// interleave between the two reads.
func (s *Store) BootstrapData() (snapshot, journal []byte, epoch int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, 0, fmt.Errorf("core: store: bootstrap after close")
	}
	if err := s.w.Flush(); err != nil {
		return nil, nil, 0, fmt.Errorf("core: store: flush journal: %w", err)
	}
	snapshot, err = os.ReadFile(s.base)
	if errors.Is(err, fs.ErrNotExist) {
		snapshot, err = nil, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: store: read snapshot for bootstrap: %w", err)
	}
	journal = nil
	if s.size > 0 {
		journal = make([]byte, s.size)
		f, ferr := os.Open(s.journalPath())
		if ferr != nil {
			return nil, nil, 0, fmt.Errorf("core: store: open journal for bootstrap: %w", ferr)
		}
		n, rerr := f.ReadAt(journal, 0)
		_ = f.Close() // read-only handle; nothing to flush
		if rerr != nil && int64(n) < s.size {
			return nil, nil, 0, fmt.Errorf("core: store: read journal for bootstrap: %w", rerr)
		}
	}
	return snapshot, journal, s.epoch, nil
}

// AppendRaw appends shipped journal bytes verbatim — complete
// newline-terminated records copied from a primary's stream — syncing
// before acknowledging (per SyncAppends), and returns the record count.
// The replica-side twin of Append: it keeps the local journal a
// byte-identical prefix of the primary's, which is what makes the local
// file size the replication position.
func (s *Store) AppendRaw(lines []byte) (int, error) {
	if len(lines) == 0 {
		return 0, nil
	}
	if lines[len(lines)-1] != '\n' {
		return 0, fmt.Errorf("core: store: raw append is not newline-terminated")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("core: store: append after close")
	}
	if _, err := s.w.Write(lines); err != nil {
		return 0, fmt.Errorf("core: store: write raw journal: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return 0, fmt.Errorf("core: store: flush raw journal: %w", err)
	}
	if s.SyncAppends {
		if err := s.journal.Sync(); err != nil {
			return 0, fmt.Errorf("core: store: sync raw journal: %w", err)
		}
	}
	n := bytes.Count(lines, []byte{'\n'})
	s.size += int64(len(lines))
	s.appended += n
	return n, nil
}

// InstallBootstrap replaces the store's durable state with a primary's
// bootstrap image and returns the freshly rebuilt DB (snapshot load +
// journal replay, exactly the recovery path). The snapshot lands
// atomically, the journal is rewritten and synced, and the epoch is
// adopted; afterwards the store's position equals len(journal) and segment
// pulls can resume there.
func (s *Store) InstallBootstrap(snapshot, journal []byte, epoch int64) (*DB, error) {
	if len(journal) > 0 && journal[len(journal)-1] != '\n' {
		return nil, fmt.Errorf("core: store: bootstrap journal is not newline-terminated")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: store: bootstrap after close")
	}
	// Publish the snapshot first: if we crash between the two writes the
	// next open sees the new snapshot with the old journal — state from a
	// torn install — but the replica re-bootstraps on the epoch mismatch
	// (the meta write below is last), so the torn state is never served.
	if len(snapshot) > 0 {
		tmp, err := os.CreateTemp(filepath.Dir(s.base), filepath.Base(s.base)+".tmp*")
		if err != nil {
			return nil, fmt.Errorf("core: store: bootstrap snapshot temp: %w", err)
		}
		_, werr := tmp.Write(snapshot)
		if werr == nil {
			werr = tmp.Sync()
		}
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			_ = os.Remove(tmp.Name())
			return nil, fmt.Errorf("core: store: write bootstrap snapshot: %w", werr)
		}
		if err := os.Rename(tmp.Name(), s.base); err != nil {
			_ = os.Remove(tmp.Name())
			return nil, fmt.Errorf("core: store: publish bootstrap snapshot: %w", err)
		}
	} else if err := os.Remove(s.base); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("core: store: drop stale snapshot: %w", err)
	}
	if err := s.journal.Close(); err != nil {
		return nil, fmt.Errorf("core: store: close journal: %w", err)
	}
	f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: store: rewrite journal: %w", err)
	}
	_, werr := f.Write(journal)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("core: store: write bootstrap journal: %w", werr)
	}
	s.journal, err = os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: store: reopen journal: %w", err)
	}
	s.w = bufio.NewWriter(s.journal)
	s.size = int64(len(journal))
	s.appended = 0

	// Rebuild the DB exactly the way recovery would: snapshot, then replay.
	db := NewDB()
	if len(snapshot) > 0 {
		loaded := NewDB()
		if err := json.Unmarshal(snapshot, loaded); err != nil {
			return nil, fmt.Errorf("core: store: unmarshal bootstrap snapshot: %w", err)
		}
		normalizeDB(loaded)
		db = loaded
	}
	replayed, off, err := replayJournal(s.journalPath(), db)
	if err != nil {
		return nil, fmt.Errorf("core: store: replay bootstrap journal: %w", err)
	}
	if off != s.size {
		return nil, fmt.Errorf("core: store: bootstrap journal has a torn tail (%d of %d bytes replayable)", off, s.size)
	}
	s.replayed, s.appended = replayed, 0
	if err := s.setEpochLocked(epoch); err != nil {
		return nil, err
	}
	return db, nil
}

// ParseSegment decodes the complete records of a record-aligned journal
// segment. It returns the records plus the byte length consumed; a
// trailing partial line (which ReadSegment never produces, but a cut-off
// transfer can) is left unconsumed rather than failing.
func ParseSegment(data []byte) (recs []JournalEntry, consumed int64, err error) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		line := data[:nl+1]
		data = data[nl+1:]
		body := bytes.TrimSpace(line)
		if len(body) == 0 {
			consumed += int64(len(line))
			continue
		}
		var rec journalRecord
		if uerr := json.Unmarshal(body, &rec); uerr != nil {
			return nil, consumed, fmt.Errorf("core: store: corrupt segment record: %w", uerr)
		}
		recs = append(recs, JournalEntry{Workload: rec.Workload, InputBytes: rec.InputBytes, Obs: rec.Obs})
		consumed += int64(len(line))
	}
	return recs, consumed, nil
}

// JournalEntry is one decoded journal record, the unit a replica applies.
type JournalEntry struct {
	Workload   string
	InputBytes float64
	Obs        []StageObservation
}
