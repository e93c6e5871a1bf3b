package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/variation"
)

// chunkPayload fakes a variation.ChunkStat wire payload — the store
// treats checkpoint data as opaque bytes, so the shape only matters to
// the resuming executor.
func chunkPayload(chunk int) []byte {
	return []byte(fmt.Sprintf(`{"chunk":%d,"from":%d,"to":%d,"stats":{"moments":{"n":24}}}`,
		chunk, chunk*24, (chunk+1)*24))
}

// Checkpoints journaled for a running job must come back, in chunk
// order and byte-identical, on the Interrupted RecoveredJob after a
// reopen — including chunk 0, whose record omits the chunk field.
func TestCheckpointReplayOnInterrupted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	spec := testSpec(7)
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	if err := s.JobSubmitted("job-000001", spec, spec.CanonicalHash(), SubmitMeta{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000001", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// Journal out of order and with a rewrite: replay keeps the last
	// payload per chunk and sorts ascending.
	for _, c := range []int{2, 0, 1, 2} {
		if err := s.JobCheckpoint("job-000001", c, chunkPayload(c), t0.Add(2*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // no terminal record: the "crash"

	s2 := mustOpen(t, dir, nil, Options{})
	rec := s2.Recovered()
	if len(rec) != 1 || rec[0].State != StateInterrupted {
		t.Fatalf("recovered %+v, want one interrupted job", rec)
	}
	cps := rec[0].Checkpoints
	if len(cps) != 3 {
		t.Fatalf("recovered %d checkpoints, want 3", len(cps))
	}
	for i, cp := range cps {
		if cp.Chunk != i {
			t.Errorf("checkpoint %d has chunk %d, want ascending order", i, cp.Chunk)
		}
		if string(cp.Data) != string(chunkPayload(i)) {
			t.Errorf("chunk %d payload %s, want %s", i, cp.Data, chunkPayload(i))
		}
	}
}

// Satellite: journal compaction mid-campaign must preserve the live
// job's checkpoint records — compacting is reclaiming garbage, not
// forgetting progress.
func TestCompactionPreservesLiveCheckpoints(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// CompactEvery=1: every eviction compacts, deterministically.
	s := mustOpen(t, dir, reg, Options{CompactEvery: 1})
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	// A finished job to evict, plus a campaign mid-flight.
	done := testSpec(1)
	if err := s.JobSubmitted("job-000001", done, done.CanonicalHash(), SubmitMeta{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.JobTerminal("job-000001", StateDone, "", []byte(`{"kind":"mc"}`), false, t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	camp := testSpec(2)
	if err := s.JobSubmitted("job-000002", camp, camp.CanonicalHash(), SubmitMeta{}, t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000002", t0.Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if err := s.JobCheckpoint("job-000002", c, chunkPayload(c), t0.Add(4*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	// Evict the terminal job: triggers a full journal rewrite.
	if err := s.Evict([]string{"job-000001"}, t0.Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, _ := reg.Snapshot().Counter("store_compactions_total"); n != 1 {
		t.Fatalf("store_compactions_total = %d, want 1", n)
	}
	b, err := os.ReadFile(s.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), `"state":"checkpoint"`); got != 2 {
		t.Fatalf("compacted journal holds %d checkpoint records, want 2:\n%s", got, b)
	}
	s.Close()

	// And the campaign still resumes after the compaction.
	s2 := mustOpen(t, dir, nil, Options{})
	rec := s2.Recovered()
	if len(rec) != 1 || rec[0].State != StateInterrupted || len(rec[0].Checkpoints) != 2 {
		t.Fatalf("post-compaction recovery %+v, want interrupted with 2 checkpoints", rec)
	}
}

// Satellite: count- and age-based eviction must refuse to drop a
// non-terminal (resumable) job even when the caller names it.
func TestEvictRefusesNonTerminal(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, reg, Options{CompactEvery: 1})
	spec := testSpec(3)
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	if err := s.JobSubmitted("job-000001", spec, spec.CanonicalHash(), SubmitMeta{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000001", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("job-000001", 0, chunkPayload(0), t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict([]string{"job-000001"}, t0.Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Jobs() != 1 {
		t.Fatal("eviction dropped a running (resumable) job")
	}
	if n, _ := reg.Snapshot().Counter("store_evictions_total"); n != 0 {
		t.Errorf("store_evictions_total = %d, want 0", n)
	}
	s.Close()
	s2 := mustOpen(t, dir, nil, Options{})
	rec := s2.Recovered()
	if len(rec) != 1 || len(rec[0].Checkpoints) != 1 {
		t.Fatalf("recovery after refused eviction %+v, want the checkpointed job intact", rec)
	}
}

// A terminal transition sheds the job's checkpoints: they never ride a
// done job's recovery, and the next compaction drops their records.
func TestTerminalShedsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	spec := testSpec(4)
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	if err := s.JobSubmitted("job-000001", spec, spec.CanonicalHash(), SubmitMeta{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000001", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("job-000001", 0, chunkPayload(0), t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobTerminal("job-000001", StateDone, "", []byte(`{"kind":"mc"}`), false, t0.Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, nil, Options{})
	rec := s2.Recovered()
	if len(rec) != 1 || rec[0].State != StateDone {
		t.Fatalf("recovered %+v, want one done job", rec)
	}
	if len(rec[0].Checkpoints) != 0 {
		t.Errorf("done job still carries %d checkpoints", len(rec[0].Checkpoints))
	}
	// Replay flagged the stale checkpoint records as garbage and
	// compacted them away at open.
	b, err := os.ReadFile(s2.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"state":"checkpoint"`) {
		t.Error("compacted journal still holds checkpoint records for a terminal job")
	}
	_ = json.Valid(b)
}

// Every record kind reaches the journal as exactly json.Marshal(rec)
// plus a newline, whatever the reused encoding buffer held before —
// including after a record large enough to drop it.
func TestJournalLinesMatchMarshal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	small, big := testSpec(1), testSpec(2)
	big.Netlist = "* deck\n" + strings.Repeat("R1 a 0 1k\n", 2*maxRecordBuf/10) + ".end"
	meta := SubmitMeta{Tenant: "acme", Class: "batch", Node: "a", Internal: true}
	var want []record
	step := func(err error, rec record) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	step(s.JobSubmitted("job-000001", small, "h1", SubmitMeta{}, t0),
		record{Time: t0, Job: "job-000001", State: StateSubmitted, Spec: small, Hash: "h1"})
	step(s.JobSubmitted("job-000002", big, "h2", meta, t0),
		record{Time: t0, Job: "job-000002", State: StateSubmitted, Spec: big, Hash: "h2",
			Tenant: "acme", Class: "batch", Node: "a", Internal: true})
	step(s.JobRunning("job-000001", t0),
		record{Time: t0, Job: "job-000001", State: StateRunning})
	for c := 0; c < 2; c++ {
		step(s.JobCheckpoint("job-000001", c, chunkPayload(c), t0),
			record{Time: t0, Job: "job-000001", State: StateCheckpoint, Chunk: c, Data: chunkPayload(c)})
	}
	step(s.JobTerminal("job-000001", StateDone, "", []byte(`{}`), true, t0),
		record{Time: t0, Job: "job-000001", State: StateDone, Cached: true})
	step(s.JobTerminal("job-000002", StateFailed, "deck <error>", nil, false, t0),
		record{Time: t0, Job: "job-000002", State: StateFailed, Error: "deck <error>"})
	step(s.JobSubmitted("job-000003", small, "h3", SubmitMeta{}, t0),
		record{Time: t0, Job: "job-000003", State: StateSubmitted, Spec: small, Hash: "h3"})
	step(s.JobTerminal("job-000003", StateCancelled, "cancelled by client", nil, false, t0),
		record{Time: t0, Job: "job-000003", State: StateCancelled, Error: "cancelled by client"})
	step(s.Evict([]string{"job-000003"}, t0),
		record{Time: t0, Job: "job-000003", State: StateEvicted})

	var buf strings.Builder
	for _, rec := range want {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	got, err := os.ReadFile(s.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != buf.String() {
		t.Fatalf("journal bytes differ from json.Marshal per record:\n got %q\nwant %q", got, buf.String())
	}
	if s.buf.Cap() > maxRecordBuf {
		t.Errorf("encoding buffer kept %d bytes after an oversized record", s.buf.Cap())
	}
}

// TestCheckpointCommitWindow drives the commit window on synthetic
// record times: a checkpoint inside commitWindow of the last fsync is
// appended without one, the first past it fsyncs once, and every
// lifecycle record fsyncs whatever its time.
func TestCheckpointCommitWindow(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustOpen(t, t.TempDir(), reg, Options{})
	counts := func() (appends, fsyncs int64) {
		snap := reg.Snapshot()
		appends, _ = snap.Counter("store_journal_appends_total")
		fsyncs, _ = snap.Counter("store_journal_fsyncs_total")
		return appends, fsyncs
	}
	var a0, f0 int64
	do := func(what string, err error, wantFsyncs int64) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		a, f := counts()
		if a-a0 != 1 || f-f0 != wantFsyncs {
			t.Errorf("%s: appends +%d fsyncs +%d, want +1 +%d", what, a-a0, f-f0, wantFsyncs)
		}
		a0, f0 = a, f
	}

	spec := testSpec(5)
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	do("submitted", s.JobSubmitted("job-000001", spec, spec.CanonicalHash(), SubmitMeta{}, t0), 1)
	do("running", s.JobRunning("job-000001", t0), 1)
	do("checkpoint inside the window", s.JobCheckpoint("job-000001", 0, chunkPayload(0), t0.Add(commitWindow/2)), 0)
	do("checkpoint just inside the window", s.JobCheckpoint("job-000001", 1, chunkPayload(1), t0.Add(commitWindow-1)), 0)
	do("first checkpoint a full window later", s.JobCheckpoint("job-000001", 2, chunkPayload(2), t0.Add(commitWindow)), 1)
	t1 := t0.Add(commitWindow)
	do("checkpoint inside the new window", s.JobCheckpoint("job-000001", 3, chunkPayload(3), t1.Add(time.Millisecond)), 0)
	// A lifecycle record fsyncs even inside the window, and opens a new one.
	other := testSpec(6)
	do("submitted inside the window", s.JobSubmitted("job-000002", other, other.CanonicalHash(), SubmitMeta{}, t1.Add(2*time.Millisecond)), 1)
	do("running inside the window", s.JobRunning("job-000002", t1.Add(3*time.Millisecond)), 1)
	do("checkpoint after a lifecycle fsync", s.JobCheckpoint("job-000001", 4, chunkPayload(4), t1.Add(commitWindow)), 0)
	do("terminal inside the window", s.JobTerminal("job-000001", StateDone, "", nil, false, t1.Add(commitWindow+time.Millisecond)), 1)
	do("cancelled inside the window", s.JobTerminal("job-000002", StateCancelled, "cancelled", nil, false, t1.Add(commitWindow+2*time.Millisecond)), 1)
	do("evicted inside the window", s.Evict([]string{"job-000002"}, t1.Add(commitWindow+3*time.Millisecond)), 1)
	if s.synced != s.size {
		t.Errorf("after a lifecycle fsync the synced length is %d of %d bytes", s.synced, s.size)
	}
}

// TestCrashLosesOnlyUnsyncedCheckpoints is the power-loss contract of the
// commit window: the disk may hold the journal anywhere from its length
// at the last fsync to everything written since, torn lines included.
// Every such image opens, classifies the campaign Interrupted, and hands
// back exactly the checkpoints whose lines it holds whole.
func TestCrashLosesOnlyUnsyncedCheckpoints(t *testing.T) {
	s := mustOpen(t, t.TempDir(), nil, Options{})
	spec := testSpec(8)
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	if err := s.JobSubmitted("job-000001", spec, spec.CanonicalHash(), SubmitMeta{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000001", t0); err != nil {
		t.Fatal(err)
	}
	// Chunks 0-2 fall in the window the running record's fsync opened,
	// chunk 3 is past it and fsyncs, chunks 4-5 fall in its window.
	ms := time.Millisecond
	at := []time.Duration{10 * ms, 20 * ms, 30 * ms, commitWindow + 10*ms, commitWindow + 20*ms, commitWindow + 30*ms}
	ends := make([]int64, len(at)) // journal length after each checkpoint
	for c, d := range at {
		if err := s.JobCheckpoint("job-000001", c, chunkPayload(c), t0.Add(d)); err != nil {
			t.Fatal(err)
		}
		ends[c] = s.size
	}
	if s.synced != ends[3] {
		t.Fatalf("synced length %d, want %d (through chunk 3's fsync)", s.synced, ends[3])
	}
	journal, err := os.ReadFile(s.journalPath())
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int64{s.synced, (ends[3] + ends[4]) / 2, ends[4], ends[5]}
	for _, cut := range cuts {
		whole := 0 // checkpoints whose lines the cut holds whole
		for _, end := range ends {
			if end <= cut {
				whole++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		rec := s2.Recovered()
		s2.Close()
		if len(rec) != 1 || rec[0].State != StateInterrupted {
			t.Fatalf("cut at %d: recovered %+v, want one interrupted job", cut, rec)
		}
		if len(rec[0].Checkpoints) != whole {
			t.Errorf("cut at %d: %d checkpoints, want the %d inside the cut", cut, len(rec[0].Checkpoints), whole)
		}
		for i, cp := range rec[0].Checkpoints {
			if cp.Chunk != i || string(cp.Data) != string(chunkPayload(i)) {
				t.Errorf("cut at %d: checkpoint %d is chunk %d %s, want chunk %d %s", cut, i, cp.Chunk, cp.Data, i, chunkPayload(i))
			}
		}
	}
}

// BenchmarkJournalCheckpoint journals one dense Monte-Carlo job per op
// the way the job server does: submitted, running, one checkpoint per
// 256-trial chunk of a 20,000-trial campaign (79, each carrying a real
// variation.ChunkStat), and the terminal record, stamped with wall-clock
// times on a disk store. It reports journal fsyncs per op.
func BenchmarkJournalCheckpoint(b *testing.B) {
	var payloads [][]byte
	camp := variation.Campaign{Trials: 20000, Seed: 1,
		Trial: func(rng *mathx.RNG, _ int) (float64, error) { return rng.Norm(), nil },
		OnChunk: func(st variation.ChunkStat) {
			p, err := json.Marshal(st)
			if err != nil {
				b.Fatal(err)
			}
			payloads = append(payloads, p)
		}}
	if _, err := camp.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	if len(payloads) != 79 {
		b.Fatalf("campaign emitted %d chunks, want 79", len(payloads))
	}
	reg := obs.NewRegistry()
	s, err := Open(b.TempDir(), reg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	spec := testSpec(1)
	hash := spec.CanonicalHash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("job-%06d", i)
		err := s.JobSubmitted(id, spec, hash, SubmitMeta{}, time.Now())
		if err == nil {
			err = s.JobRunning(id, time.Now())
		}
		for c := 0; err == nil && c < len(payloads); c++ {
			err = s.JobCheckpoint(id, c, payloads[c], time.Now())
		}
		if err == nil {
			err = s.JobTerminal(id, StateDone, "", nil, false, time.Now())
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fsyncs, _ := reg.Snapshot().Counter("store_journal_fsyncs_total")
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
}
