package main

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures_fast.golden from this run")

var goldenPath = filepath.Join("testdata", "figures_fast.golden")

// TestGoldenTranscript compares the stdout of `figures -fast` with
// testdata/figures_fast.golden; -update rewrites the file.
func TestGoldenTranscript(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-fast"}); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s (rerun with -update to accept); got:\n%s", goldenPath, got)
	}
}

var (
	quotedNumber = regexp.MustCompile(`\d+(?:\.\d+)?`)
	namedTest    = regexp.MustCompile(`Test\w+`)
)

// TestExperimentsQuoteTranscript keeps EXPERIMENTS.md's Ablations table
// and SRAM row honest: every number they quote must appear, as a whole
// number, in the golden -fast transcript. A claim no artefact prints
// names the test that checks it instead, and that test must exist.
func TestExperimentsQuoteTranscript(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	inAblations := false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			inAblations = strings.HasPrefix(line, "## Ablations")
		case strings.HasPrefix(line, "| — (§2 on memory)"),
			inAblations && strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "| Study") && !strings.HasPrefix(line, "|---"):
			rows = append(rows, line)
		}
	}
	if len(rows) != 8 {
		t.Fatalf("found %d rows in EXPERIMENTS.md's Ablations table and SRAM row, want 7 + 1", len(rows))
	}
	tests := testFuncs(t)
	for _, row := range rows {
		for _, name := range namedTest.FindAllString(row, -1) {
			if !tests[name] {
				t.Errorf("EXPERIMENTS.md names %s, which no test file defines: %s", name, row)
			}
		}
		for _, num := range quotedNumber.FindAllString(namedTest.ReplaceAllString(row, ""), -1) {
			whole := regexp.MustCompile(`(?:^|[^\d.])` + regexp.QuoteMeta(num) + `(?:$|[^\d.]|\.\D)`)
			if !whole.Match(golden) {
				t.Errorf("EXPERIMENTS.md quotes %s, which %s does not print: %s", num, goldenPath, row)
			}
		}
	}
}

// testFuncs returns the names of the Test functions in the module.
func testFuncs(t *testing.T) map[string]bool {
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
