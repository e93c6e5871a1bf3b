package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// seedJournal writes a journal through the store API that carries every
// record state: an interrupted campaign with checkpoints, a cached done
// job, a failed, a cancelled and a queued one, and an evicted one.
func seedJournal(f *testing.F) []byte {
	dir := f.TempDir()
	s, err := Open(dir, nil, Options{})
	if err != nil {
		f.Fatal(err)
	}
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	for i, id := range []string{"job-000001", "job-000002", "job-000003", "job-000004", "job-000005", "job-000006"} {
		spec := testSpec(uint64(i + 1))
		must(s.JobSubmitted(id, spec, spec.CanonicalHash(), SubmitMeta{Tenant: "acme", Class: "batch", Node: "a"}, t0))
	}
	must(s.JobRunning("job-000001", t0.Add(time.Second)))
	must(s.JobCheckpoint("job-000001", 0, chunkPayload(0), t0.Add(2*time.Second)))
	must(s.JobCheckpoint("job-000001", 1, chunkPayload(1), t0.Add(3*time.Second)))
	must(s.JobRunning("job-000002", t0.Add(time.Second)))
	must(s.JobTerminal("job-000002", StateDone, "", []byte(`{"kind":"mc"}`), true, t0.Add(4*time.Second)))
	must(s.JobTerminal("job-000003", StateFailed, "deck error", nil, false, t0.Add(4*time.Second)))
	must(s.JobTerminal("job-000004", StateCancelled, "cancelled by client", nil, false, t0.Add(4*time.Second)))
	must(s.JobTerminal("job-000005", StateDone, "", []byte(`{}`), false, t0.Add(4*time.Second)))
	must(s.Evict([]string{"job-000005"}, t0.Add(5*time.Second)))
	must(s.Close())
	b, err := os.ReadFile(s.journalPath())
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// dirDigest renders every file under dir, path and bytes, as one string.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	var buf bytes.Buffer
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		buf.WriteString(path + "\n")
		buf.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// recoveredJSON is the comparison form of a replay: encoding/json
// normalises time zones and raw-message whitespace, which a journal
// rewrite may legitimately change.
func recoveredJSON(t *testing.T, rec []RecoveredJob) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzJournalReplay opens arbitrary bytes as a journal. Open must never
// panic; Open → Close → Open must recover the same jobs (torn-tail
// repair and compaction are idempotent); and the read-only ReadJournal
// must agree with Open while leaving the directory byte-identical.
func FuzzJournalReplay(f *testing.F) {
	good := seedJournal(f)
	f.Add(good)
	f.Add(good[:len(good)-9]) // torn tail
	lines := bytes.SplitAfter(good, []byte("\n"))
	lines[3] = []byte("{\"time\":\"2026-08-05T12:00:0\n") // corrupt interior line
	f.Add(bytes.Join(lines, nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirDigest(t, dir)
		read, err := ReadJournal(dir)
		if err != nil {
			t.Fatalf("ReadJournal: %v", err)
		}
		if dirDigest(t, dir) != before {
			t.Fatal("ReadJournal modified the directory")
		}
		s, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first := recoveredJSON(t, s.Recovered())
		s.Close()
		if got := recoveredJSON(t, read); got != first {
			t.Fatalf("ReadJournal recovered\n%s\nOpen recovered\n%s", got, first)
		}
		s2, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if again := recoveredJSON(t, s2.Recovered()); again != first {
			t.Fatalf("reopen recovered\n%s\nfirst open recovered\n%s", again, first)
		}
	})
}
