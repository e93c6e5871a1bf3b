package serve

import (
	"context"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/store"
)

// copyTree snapshots a data directory file by file — the disk image a
// SIGKILLed process leaves behind.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillAndResumeCampaign is the end-to-end acceptance run for the
// checkpoint/resume path, under -race via `make race-shard`: a server
// is "SIGKILLed" mid-campaign (its data directory copied out from under
// it while the executor is frozen between chunks), and a fresh server
// over that disk image must finish the campaign from the last
// journaled checkpoint — re-running only the chunks past it, with the
// merged moments bit-identical to an uninterrupted run.
func TestKillAndResumeCampaign(t *testing.T) {
	dirA := t.TempDir()
	regA := obs.NewRegistry()
	stA := mustStore(t, dirA, regA)

	const trials = 96 // chunk size 24 → a 4-chunk campaign grid
	spec := mcSpec(trials)
	spec.Seed = 21

	// The real engine runs the trials; only the checkpoint hook is
	// intercepted, freezing the campaign right after chunk 1 is fsync'd
	// to the journal — the moment a SIGKILL would hurt the most.
	frozen := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	exec := func(ctx context.Context, sp *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		inner := opts.OnCheckpoint
		opts.OnCheckpoint = func(cp jobspec.Checkpoint) {
			if inner != nil {
				inner(cp)
			}
			if cp.Seq == 1 {
				once.Do(func() { close(frozen) })
				<-release
			}
		}
		return jobspec.ExecuteOpts(ctx, sp, opts)
	}
	sA := NewServer(Config{QueueDepth: 2, Workers: 1, Store: stA, Registry: regA, Execute: exec})
	tsA := httptest.NewServer(sA)
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sA.Shutdown(ctx)
		tsA.Close()
		stA.Close()
	})

	_, v := submit(t, tsA, spec)
	select {
	case <-frozen:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never journaled its second checkpoint")
	}

	// The "kill": the journal is quiesced (the worker is blocked inside
	// the checkpoint hook, after the append+fsync), so the copy is
	// exactly the disk image of a process that died right here.
	dirB := t.TempDir()
	copyTree(t, dirA, dirB)

	regB := obs.NewRegistry()
	stB := mustStore(t, dirB, regB)
	t.Cleanup(func() { stB.Close() })
	sB := NewServer(Config{QueueDepth: 2, Workers: 1, Store: stB, Registry: regB})
	tsB := httptest.NewServer(sB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sB.Shutdown(ctx)
		tsB.Close()
	})

	if n, _ := regB.Snapshot().Counter("serve_jobs_resumed_total"); n != 1 {
		t.Errorf("serve_jobs_resumed_total = %d, want 1", n)
	}
	fin := waitTerminal(t, tsB, v.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed campaign = %s (error %q), want done", fin.State, fin.Error)
	}
	var got jobspec.Result
	if err := json.Unmarshal(fin.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.MC == nil || got.MC.Stats == nil {
		t.Fatalf("resumed result carries no campaign stats: %+v", got.MC)
	}
	if got.MC.Resumed != 2 {
		t.Errorf("resumed %d chunks, want the 2 that were journaled", got.MC.Resumed)
	}
	if got.MC.Completed() != trials {
		t.Errorf("resumed campaign completed %d trials, want %d", got.MC.Completed(), trials)
	}
	// At most one chunk of re-work: the restarted server executed (and
	// re-journaled) only the 2 chunks past the last checkpoint, never the
	// 2 it inherited.
	if n, _ := regB.Snapshot().Counter("serve_checkpoints_total"); n != 2 {
		t.Errorf("restarted server journaled %d checkpoints, want only the 2 remaining chunks", n)
	}

	// The merge-exactness contract: the resumed verdict's moments are
	// bit-identical to an uninterrupted run of the identical spec.
	ref := mcSpec(trials)
	ref.Seed = 21
	ref.ApplyDefaults()
	want, err := jobspec.Execute(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.MC == nil || want.MC.Stats == nil {
		t.Fatalf("reference run carries no stats: %+v", want.MC)
	}
	if got.MC.Stats.Moments != want.MC.Stats.Moments {
		t.Errorf("resumed moments\n%+v\ndiffer from the uninterrupted run's\n%+v",
			got.MC.Stats.Moments, want.MC.Stats.Moments)
	}
}

// maskRunFields re-encodes an MC result without what says how the run
// went: the wall times, the shard fan-out and the resumed chunk count.
func maskRunFields(t *testing.T, raw []byte) string {
	t.Helper()
	var r jobspec.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.MC == nil {
		t.Fatalf("result carries no mc outcome: %s", raw)
	}
	r.Elapsed, r.MC.Elapsed, r.MC.Shards, r.MC.Resumed = 0, 0, 0, 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResumedResultMatchesUninterrupted restarts a server over the disk
// image of one killed after journaling two of a campaign's four chunks:
// the result it serves is byte-identical to an uninterrupted run's,
// apart from wall times, shards and resumed.
func TestResumedResultMatchesUninterrupted(t *testing.T) {
	const trials = 96 // chunk size 24 → a 4-chunk campaign grid
	spec := mcSpec(trials)
	spec.Seed = 21
	spec.ApplyDefaults()
	var ckpts []jobspec.Checkpoint
	ref, err := jobspec.ExecuteOpts(context.Background(), spec, jobspec.Options{
		OnCheckpoint: func(cp jobspec.Checkpoint) { ckpts = append(ckpts, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := maskRunFields(t, refJSON)

	dir := t.TempDir()
	st := mustStore(t, dir, nil)
	now := time.Now()
	if err := st.JobSubmitted("job-000001", spec, spec.CanonicalHash(), store.SubmitMeta{}, now); err != nil {
		t.Fatal(err)
	}
	if err := st.JobRunning("job-000001", now); err != nil {
		t.Fatal(err)
	}
	for _, cp := range ckpts[:2] {
		if err := st.JobCheckpoint("job-000001", cp.Seq, cp.Data, now); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2 := mustStore(t, dir, nil)
	t.Cleanup(func() { st2.Close() })
	s := NewServer(Config{QueueDepth: 2, Workers: 1, Store: st2})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	fin := waitTerminal(t, ts, "job-000001")
	if fin.State != StateDone {
		t.Fatalf("resumed campaign = %s (error %q), want done", fin.State, fin.Error)
	}
	if got := maskRunFields(t, fin.Result); got != want {
		t.Errorf("resumed result\n%s\ndiffers from the uninterrupted one\n%s", got, want)
	}
	var got jobspec.Result
	if err := json.Unmarshal(fin.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.MC.Resumed != 2 {
		t.Errorf("resumed %d chunks, want 2", got.MC.Resumed)
	}
}
