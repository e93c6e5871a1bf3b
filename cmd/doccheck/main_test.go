package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFlagsUndocumentedPackage(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "good", "good.go"),
		"// Package good maps to Section 1.\npackage good\n")
	write(t, filepath.Join(root, "bad", "bad.go"),
		"package bad\n")
	// The doc comment may live in any file of the package.
	write(t, filepath.Join(root, "split", "a.go"), "package split\n")
	write(t, filepath.Join(root, "split", "doc.go"),
		"// Package split is documented elsewhere.\npackage split\n")
	// Test files and testdata don't count either way.
	write(t, filepath.Join(root, "bad", "bad_test.go"),
		"// Package bad has docs only on its tests.\npackage bad\n")
	write(t, filepath.Join(root, "good", "testdata", "ignored.go"),
		"package ignored\n")

	bad, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 {
		t.Fatalf("got %d violations %v, want 1", len(bad), bad)
	}
	if !strings.Contains(bad[0], "package bad") {
		t.Errorf("violation %q does not name package bad", bad[0])
	}
}

func TestCheckCleanTree(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "p", "p.go"),
		"// Package p implements Eq. 1.\npackage p\n")
	bad, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("clean tree reported violations: %v", bad)
	}
}

// tree writes a module named fx holding files (path → content) into a
// fresh temp dir and returns its root.
func tree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	write(t, filepath.Join(root, "go.mod"), "module fx\n\ngo 1.22\n")
	for path, content := range files {
		write(t, filepath.Join(root, filepath.FromSlash(path)), content)
	}
	return root
}

// reachBase is a package under internal/ whose exported API the command
// in cmd/tool uses, so a clean tree has nothing to report.
var reachBase = map[string]string{
	"internal/p/p.go": `// Package p is a fixture.
package p

import "fmt"

// T is used by the command.
type T struct{ N int }

// Used is called by the command.
func Used() T { return T{N: 1} }

// Describe is called by the command.
func (t T) Describe() string { return fmt.Sprint(t.N) }
`,
	"cmd/tool/main.go": `// Command tool uses p.
package main

import (
	"fmt"

	"fx/internal/p"
)

func main() { fmt.Println(p.Used().Describe()) }
`,
}

func with(extra map[string]string) map[string]string {
	files := map[string]string{}
	for k, v := range reachBase {
		files[k] = v
	}
	for k, v := range extra {
		files[k] = v
	}
	return files
}

func TestReachFlagsUnreachedAPI(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"unreferenced func", map[string]string{
			"internal/p/dead.go": "package p\n\n// Dead has no caller.\nfunc Dead() {}\n",
		}, "p.Dead is not referenced anywhere"},
		{"unreferenced method", map[string]string{
			"internal/p/dead.go": "package p\n\n// Twice has no caller.\nfunc (t T) Twice() int { return 2 * t.N }\n",
		}, "method p.T.Twice is not referenced anywhere"},
		{"tagged but no test reference", map[string]string{
			"internal/p/claim.go": "package p\n\n// Claim reproduces a paper claim.\n//\n// paper: §2 — no test asserts it.\nfunc Claim() {}\n",
		}, "p.Claim is tagged as test-only but no _test.go file references it"},
		{"own test only", map[string]string{
			"internal/p/helper.go":      "package p\n\n// Helper is used by its own test alone.\nfunc Helper() int { return 1 }\n",
			"internal/p/helper_test.go": "package p\n\nimport \"testing\"\n\nfunc TestHelper(t *testing.T) { _ = Helper() }\n",
		}, "p.Helper is used only by tests"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad, err := check(tree(t, with(c.files)))
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) != 1 || !strings.Contains(bad[0], c.want) {
				t.Fatalf("violations %q, want exactly one containing %q", bad, c.want)
			}
		})
	}
}

func TestReachAcceptsReachedAPI(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
	}{
		{"nested module reference", map[string]string{
			"internal/p/nested.go": "package p\n\n// Nested is called only from the nested module.\nfunc Nested() int { return 2 }\n",
			"bench/e2e/go.mod":     "module fx/bench/e2e\n\ngo 1.22\n\nrequire fx v0.0.0\n\nreplace fx => ../..\n",
			"bench/e2e/main.go":    "// Command e2e lives in its own module.\npackage main\n\nimport \"fx/internal/p\"\n\nfunc main() { _ = p.Nested() }\n",
		}},
		{"fmt.Stringer method", map[string]string{
			"internal/p/str.go": "package p\n\nimport \"fmt\"\n\n// String renders t.\nfunc (t T) String() string { return fmt.Sprintf(\"T(%d)\", t.N) }\n",
		}},
		{"error with Unwrap", map[string]string{
			"internal/p/err.go": "package p\n\n// E wraps a cause.\ntype E struct{ Cause error }\n\n// Error describes e.\nfunc (e *E) Error() string { return \"e\" }\n\n// Unwrap exposes the cause to errors.Is and errors.As.\nfunc (e *E) Unwrap() error { return e.Cause }\n",
			"cmd/wrap/main.go":  "// Command wrap returns an E.\npackage main\n\nimport \"fx/internal/p\"\n\nfunc main() { var err error = &p.E{}; _ = err }\n",
		}},
		{"paper tag with a test", map[string]string{
			"internal/p/claim.go":      "package p\n\n// Claim reproduces a paper claim.\n//\n// paper: §2 — TestClaim asserts it.\nfunc Claim() int { return 2 }\n",
			"internal/p/claim_test.go": "package p_test\n\nimport (\n\t\"testing\"\n\n\t\"fx/internal/p\"\n)\n\nfunc TestClaim(t *testing.T) { _ = p.Claim() }\n",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad, err := check(tree(t, with(c.files)))
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) != 0 {
				t.Fatalf("reached API reported: %q", bad)
			}
		})
	}
}
