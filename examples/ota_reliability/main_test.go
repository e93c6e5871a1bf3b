package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ota_reliability.golden from this run")

// wallTime matches the fields that change from run to run: the offset
// campaign's run time and the per-trial latency quantiles.
var wallTime = regexp.MustCompile(`(dies \()[^)]*|(MC trial p50 ).*`)

// TestGoldenTranscript compares the example's stdout, wall times masked, with
// testdata/ota_reliability.golden; -update rewrites the file.
func TestGoldenTranscript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	got := wallTime.ReplaceAllString(buf.String(), "${1}${2}<wall>")
	path := filepath.Join("testdata", "ota_reliability.golden")
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
