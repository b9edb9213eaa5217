// Package examples holds a tier-1 smoke test that executes every example
// program via `go run`, so the example directories cannot silently rot:
// each must build against the current API and finish successfully on its
// built-in small inputs.
package examples

import (
	"context"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// exampleDirs discovers the example programs (every subdirectory holding
// a main.go).
func exampleDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(e.Name(), "main.go")); err == nil {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) == 0 {
		t.Fatal("no example directories found")
	}
	return dirs
}

// statSources stats every non-test Go file of the module outside bench/.
// go test caches a result keyed on the files the test stats, so an edit
// to any package the examples build re-runs them instead of reading
// "(cached)".
func statSources(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn go run; skipped in -short mode")
	}
	statSources(t)
	for _, dir := range exampleDirs(t) {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./"+dir)
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example %s timed out:\n%s", dir, out)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", dir, err, out)
			}
			if len(out) == 0 {
				t.Errorf("example %s produced no output", dir)
			}
		})
	}
}
