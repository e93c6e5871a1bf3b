package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/emc_sweep.golden from this run")

// wallTime matches the rectification latency quantiles of the sweep-cost
// line, the fields that change from run to run.
var wallTime = regexp.MustCompile(`(p50 )[^,]+(, p99 ).+`)

// TestGoldenTranscript compares the example's stdout, wall times masked, with
// testdata/emc_sweep.golden; -update rewrites the file.
func TestGoldenTranscript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	got := wallTime.ReplaceAllString(buf.String(), "${1}<wall>${2}<wall>")
	path := filepath.Join("testdata", "emc_sweep.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s (rerun with -update to accept); got:\n%s", path, got)
	}
}
