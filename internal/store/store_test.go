package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
)

func testSpec(seed uint64) *jobspec.Spec {
	s := &jobspec.Spec{
		Analysis: jobspec.KindMC,
		Netlist:  "* deck\n.end",
		Seed:     seed,
		MC:       &jobspec.MCParams{Trials: 10, Node: "out"},
	}
	s.ApplyDefaults()
	return s
}

func mustOpen(t *testing.T, dir string, reg *obs.Registry, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	if got := s.Recovered(); len(got) != 0 {
		t.Fatalf("fresh store recovered %d jobs", len(got))
	}

	spec := testSpec(7)
	hash := spec.CanonicalHash()
	t0 := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	result := []byte(`{"kind":"mc","seed":7,"elapsed":"1ms"}`)
	if err := s.JobSubmitted("job-000001", spec, hash, SubmitMeta{}, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000001", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobTerminal("job-000001", StateDone, "", result, true, t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, nil, Options{})
	rec := s2.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(rec))
	}
	r := rec[0]
	if r.ID != "job-000001" || r.State != StateDone || r.Hash != hash {
		t.Fatalf("recovered = %+v", r)
	}
	if !r.Submitted.Equal(t0) || !r.Started.Equal(t0.Add(time.Second)) || !r.Finished.Equal(t0.Add(2*time.Second)) {
		t.Errorf("times not preserved: %+v", r)
	}
	if string(r.Result) != string(result) {
		t.Errorf("result = %q, want byte-identical %q", r.Result, result)
	}
	if r.Spec == nil || r.Spec.Seed != 7 || r.Spec.Analysis != jobspec.KindMC {
		t.Errorf("spec not preserved: %+v", r.Spec)
	}
	// The cache survived the restart too.
	if id, b, ok := s2.CachedResult(hash); !ok || id != "job-000001" || string(b) != string(result) {
		t.Errorf("cache after reopen: id=%q ok=%v result=%q", id, ok, b)
	}
}

func TestStoreRecoveryClassification(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	now := time.Now()

	// done, queued (submitted only) and interrupted (running, no terminal).
	if err := s.JobSubmitted("job-000001", testSpec(1), testSpec(1).CanonicalHash(), SubmitMeta{}, now); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000001", now); err != nil {
		t.Fatal(err)
	}
	if err := s.JobTerminal("job-000001", StateFailed, "deck error", nil, false, now); err != nil {
		t.Fatal(err)
	}
	if err := s.JobSubmitted("job-000002", testSpec(2), testSpec(2).CanonicalHash(), SubmitMeta{}, now); err != nil {
		t.Fatal(err)
	}
	if err := s.JobSubmitted("job-000003", testSpec(3), testSpec(3).CanonicalHash(), SubmitMeta{}, now); err != nil {
		t.Fatal(err)
	}
	if err := s.JobRunning("job-000003", now); err != nil {
		t.Fatal(err)
	}
	s.Close()

	reg := obs.NewRegistry()
	s2 := mustOpen(t, dir, reg, Options{})
	rec := s2.Recovered()
	if len(rec) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(rec))
	}
	states := map[string]string{}
	for _, r := range rec {
		states[r.ID] = r.State
	}
	want := map[string]string{
		"job-000001": StateFailed,
		"job-000002": StateQueued,
		"job-000003": StateInterrupted,
	}
	for id, st := range want {
		if states[id] != st {
			t.Errorf("job %s recovered as %q, want %q", id, states[id], st)
		}
	}
	if n, _ := reg.Snapshot().Counter("store_replayed_jobs_total"); n != 3 {
		t.Errorf("store_replayed_jobs_total = %d, want 3", n)
	}

	e := &InterruptedError{JobID: "job-000003", Started: now}
	if !strings.Contains(e.Error(), "job-000003") || !strings.Contains(e.Error(), "interrupted") {
		t.Errorf("InterruptedError text = %q", e)
	}
}

// TestStoreCacheSemantics runs over both backings: a directory and the
// in-memory store Open("") returns.
func TestStoreCacheSemantics(t *testing.T) {
	for _, tc := range []struct{ name, dir string }{{"disk", t.TempDir()}, {"memory", ""}} {
		dir := tc.dir
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := mustOpen(t, dir, reg, Options{})
			now := time.Now()
			spec := testSpec(5)
			hash := spec.CanonicalHash()

			if _, _, ok := s.CachedResult(hash); ok {
				t.Fatal("empty store reported a cache hit")
			}
			if err := s.JobSubmitted("job-000001", spec, hash, SubmitMeta{}, now); err != nil {
				t.Fatal(err)
			}
			// cacheable=false (e.g. a partial or no_cache run) must not populate.
			if err := s.JobTerminal("job-000001", StateDone, "", []byte(`{"partial":true}`), false, now); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.CachedResult(hash); ok {
				t.Fatal("non-cacheable terminal populated the cache")
			}
			// A cacheable run does.
			if err := s.JobSubmitted("job-000002", spec, hash, SubmitMeta{}, now); err != nil {
				t.Fatal(err)
			}
			if err := s.JobTerminal("job-000002", StateDone, "", []byte(`{"kind":"mc"}`), true, now); err != nil {
				t.Fatal(err)
			}
			id, b, ok := s.CachedResult(hash)
			if !ok || id != "job-000002" || string(b) != `{"kind":"mc"}` {
				t.Fatalf("cache hit = %q %q %v", id, b, ok)
			}
			snap := reg.Snapshot()
			if n, _ := snap.Counter("store_cache_hits_total"); n != 1 {
				t.Errorf("store_cache_hits_total = %d, want 1", n)
			}
			if n, _ := snap.Counter("store_cache_misses_total"); n != 2 {
				t.Errorf("store_cache_misses_total = %d, want 2", n)
			}
			// Evicting the owning job drops its entry.
			if err := s.Evict([]string{"job-000002"}, now); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.CachedResult(hash); ok || s.Jobs() != 1 {
				t.Errorf("after eviction: cache hit %v, %d live jobs; want a miss and 1", ok, s.Jobs())
			}
		})
	}
}

func TestStoreEvictAndCompact(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, reg, Options{CompactEvery: 2})
	now := time.Now()
	ids := []string{"job-000001", "job-000002", "job-000003", "job-000004"}
	for i, id := range ids {
		spec := testSpec(uint64(i + 1))
		if err := s.JobSubmitted(id, spec, spec.CanonicalHash(), SubmitMeta{}, now); err != nil {
			t.Fatal(err)
		}
		if err := s.JobTerminal(id, StateDone, "", []byte(`{"i":`+id[len(id)-1:]+`}`), true, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Evict(ids[:2], now); err != nil {
		t.Fatal(err)
	}
	if got := s.Jobs(); got != 2 {
		t.Fatalf("live jobs after evict = %d, want 2", got)
	}
	snap := reg.Snapshot()
	if n, _ := snap.Counter("store_evictions_total"); n != 2 {
		t.Errorf("store_evictions_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("store_compactions_total"); n != 1 {
		t.Errorf("store_compactions_total = %d, want 1 (CompactEvery=2)", n)
	}
	// Evicted snapshots are gone from disk; survivors remain.
	if _, err := os.Stat(s.resultPath(ids[0])); !os.IsNotExist(err) {
		t.Errorf("evicted result file still on disk: %v", err)
	}
	if _, err := os.Stat(s.resultPath(ids[3])); err != nil {
		t.Errorf("surviving result file missing: %v", err)
	}
	// The compacted journal replays to exactly the survivors.
	s.Close()
	s2 := mustOpen(t, dir, nil, Options{})
	rec := s2.Recovered()
	if len(rec) != 2 || rec[0].ID != ids[2] || rec[1].ID != ids[3] {
		t.Fatalf("after compaction recovered %+v, want [%s %s]", rec, ids[2], ids[3])
	}
	// An evicted job's cache entry died with it; the survivor's lives.
	if _, _, ok := s2.CachedResult(testSpec(1).CanonicalHash()); ok {
		t.Error("evicted job still answers from the cache")
	}
	if _, _, ok := s2.CachedResult(testSpec(4).CanonicalHash()); !ok {
		t.Error("surviving job lost its cache entry")
	}
}

func TestStoreTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	now := time.Now()
	spec := testSpec(9)
	if err := s.JobSubmitted("job-000001", spec, spec.CanonicalHash(), SubmitMeta{}, now); err != nil {
		t.Fatal(err)
	}
	if err := s.JobTerminal("job-000001", StateDone, "", []byte(`{"ok":true}`), true, now); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a torn, newline-less record fragment.
	f, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"time":"2026-08-05T12:00:00Z","job":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, nil, Options{})
	rec := s2.Recovered()
	if len(rec) != 1 || rec[0].State != StateDone {
		t.Fatalf("after torn tail recovered %+v", rec)
	}
	// The open compacted the tear away: appends continue cleanly and a
	// third open sees both jobs intact.
	spec2 := testSpec(10)
	if err := s2.JobSubmitted("job-000002", spec2, spec2.CanonicalHash(), SubmitMeta{}, now); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, nil, Options{})
	if rec := s3.Recovered(); len(rec) != 2 {
		t.Fatalf("after repair recovered %d jobs, want 2", len(rec))
	}
}

func TestStoreOrphanResultGC(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	s.Close()
	orphan := filepath.Join(dir, "results", "job-999999.json")
	if err := os.WriteFile(orphan, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, nil, Options{})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan result snapshot not garbage-collected: %v", err)
	}
}

// legacyMCSnapshot is an MC result snapshot as the store held it before
// MC results reported from their mergeable stats alone: it still carries
// every trial's "values".
const legacyMCSnapshot = `{"kind":"mc","seed":3,"elapsed":"1.52ms","mc":{"node":"out","requested":4,"values":[0.05709659105278933,0.07316629788298887,0.07106311260179356,0.07265919492020576],"failures":0,"nans":0,"cancelled":0,"elapsed":"1.31ms","stats":{"moments":{"n":4,"mean":0.06849629911444438,"m2":0.00017568046535763342,"min":0.05709659105278933,"max":0.07316629788298887},"sketch":{"count":4,"min":0.05709659105278933,"max":0.07316629788298887,"centroids":[{"m":0.05709659105278933,"c":1},{"m":0.07106311260179356,"c":1},{"m":0.07265919492020576,"c":1},{"m":0.07316629788298887,"c":1}]},"pass":4},"yield":{"Pass":4,"Total":4,"Yield":1,"Lo95":0.5101091635454027,"Hi95":1}}}`

func TestStoreResultSnapshotDecodable(t *testing.T) {
	// A snapshot stored before MC results dropped per-trial values must
	// replay byte for byte, and its cached bytes must still decode into a
	// jobspec.Result, as the signoff sub-job cache read does.
	dir := t.TempDir()
	s := mustOpen(t, dir, nil, Options{})
	raw := []byte(legacyMCSnapshot)
	spec := testSpec(3)
	now := time.Now()
	if err := s.JobSubmitted("job-000001", spec, spec.CanonicalHash(), SubmitMeta{}, now); err != nil {
		t.Fatal(err)
	}
	if err := s.JobTerminal("job-000001", StateDone, "", raw, true, now); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, nil, Options{})
	if got := s2.Recovered()[0].Result; !bytes.Equal(got, raw) {
		t.Fatalf("replayed snapshot changed:\n%s\nwant\n%s", got, raw)
	}
	_, cached, ok := s2.CachedResult(spec.CanonicalHash())
	if !ok || !bytes.Equal(cached, raw) {
		t.Fatalf("cached snapshot = %s (ok %v), want the stored bytes", cached, ok)
	}
	var got jobspec.Result
	if err := json.Unmarshal(cached, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seed != 3 || got.MC == nil || got.MC.Completed() != 4 || got.MC.Yield == nil || got.MC.Yield.Pass != 4 {
		t.Fatalf("decoded snapshot = %+v", got)
	}
}

// legacyMCJournal is a journal written before mc.batch was retired:
// ApplyDefaults then wrote "batch":32 into every MC submit record, so
// every data dir of that age holds the field the job server's strict
// decode now refuses.
const legacyMCJournal = `{"time":"2026-08-05T12:00:00Z","job":"job-000001","state":"submitted","spec":{"version":2,"analysis":"mc","netlist":"* inv\nVDD vdd 0 DC 1\n.end\n","seed":7,"mc":{"trials":1000,"node":"out","lo":0.4,"hi":0.8,"batch":32}},"hash":"846be0555db53f5da6b8605afa57e24ce09803a9d1176151fd10ebcdd252bedc","tenant":"acme","class":"batch","node":"a"}
`

// TestStoreReplaysRetiredMCBatch checks that replay decodes a submit
// record carrying the retired mc.batch leniently: Open and the fleet's
// read-only ReadJournal both recover the job as queued with its journaled
// hash, which its spec still reproduces, so the result cache stays keyed.
func TestStoreReplaysRetiredMCBatch(t *testing.T) {
	const hash = "846be0555db53f5da6b8605afa57e24ce09803a9d1176151fd10ebcdd252bedc"
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(legacyMCJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(how string, rec []RecoveredJob) {
		t.Helper()
		if len(rec) != 1 {
			t.Fatalf("%s: recovered %d jobs, want 1", how, len(rec))
		}
		j := rec[0]
		if j.ID != "job-000001" || j.State != StateQueued || j.Hash != hash {
			t.Fatalf("%s: recovered %s %s hash %s, want job-000001 queued hash %s", how, j.ID, j.State, j.Hash, hash)
		}
		if j.Spec == nil || j.Spec.MC == nil || j.Spec.MC.Trials != 1000 {
			t.Fatalf("%s: spec not recovered: %+v", how, j.Spec)
		}
		if got := j.Spec.CanonicalHash(); got != hash {
			t.Fatalf("%s: recovered spec hashes %s, journaled %s", how, got, hash)
		}
	}
	read, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadJournal", read)
	s := mustOpen(t, dir, nil, Options{})
	defer s.Close()
	check("Open", s.Recovered())
}
