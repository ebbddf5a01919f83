package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/lint"
)

// goldenFile pins the complete output of the whole suite over every
// fixture. The per-analyzer tests match `// want` regexps, which do not
// pin columns or full message text; this file does, so a refactor of the
// analyzers' shared engines must leave every diagnostic byte-identical.
const goldenFile = "testdata/diagnostics.golden"

// TestGoldenDiagnostics runs lint.All() over each fixture under
// testdata/src (each as its own package, exactly as the per-analyzer
// tests load it) and compares every `file:line:col: analyzer: message`
// line, with fixture-relative paths, against the golden file.
func TestGoldenDiagnostics(t *testing.T) {
	src := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg, err := lint.LoadDir(filepath.Join(src, e.Name()), "test/"+e.Name())
		if err != nil {
			t.Fatalf("loading fixture %s: %v", e.Name(), err)
		}
		diags, err := lint.Run([]*lint.Package{pkg}, lint.All())
		if err != nil {
			t.Fatalf("running the suite on %s: %v", e.Name(), err)
		}
		for _, d := range diags {
			lines = append(lines, strings.ReplaceAll(d.String(), src+string(filepath.Separator), ""))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
		i++
	}
	t.Errorf("diagnostics differ from %s at line %d; after an intended change, replace the file with the suite's current output:\n%s",
		goldenFile, i+1, got)
}
