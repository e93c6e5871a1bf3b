package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/em_signoff.golden from this run")

// TestGoldenTranscript compares the example's stdout with
// testdata/em_signoff.golden; -update rewrites the file.
func TestGoldenTranscript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	path := filepath.Join("testdata", "em_signoff.golden")
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
