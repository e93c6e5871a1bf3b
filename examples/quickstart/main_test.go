package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quickstart.golden from this run")

// wallTime matches the Monte-Carlo run time in the telemetry line, the
// one field that changes from run to run.
var wallTime = regexp.MustCompile(`(trials in )[^,]+`)

// TestGoldenTranscript compares the example's stdout, wall times masked, with
// testdata/quickstart.golden; -update rewrites the file.
func TestGoldenTranscript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	got := wallTime.ReplaceAllString(buf.String(), "${1}<wall>")
	path := filepath.Join("testdata", "quickstart.golden")
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
