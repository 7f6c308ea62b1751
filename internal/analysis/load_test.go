package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eant/internal/analysis"
)

func TestModulePath(t *testing.T) {
	got, err := analysis.ModulePath(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if got != "eant" {
		t.Fatalf("module path %q, want eant", got)
	}
}

func TestPackageDirsCoversModuleAndSkipsTestdata(t *testing.T) {
	dirs, err := analysis.PackageDirs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, dp := range dirs {
		seen[dp[1]] = true
		if strings.Contains(dp[0], "testdata") {
			t.Errorf("testdata directory leaked into package list: %s", dp[0])
		}
	}
	for _, want := range []string{"eant", "eant/cmd/eantlint", "eant/cmd/eantsim", "eant/internal/analysis", "eant/internal/core", "eant/internal/sim"} {
		if !seen[want] {
			t.Errorf("package list missing %s (got %d packages)", want, len(dirs))
		}
	}
}

// TestPackageDirsSkipsNestedModules: a directory below the root with its
// own go.mod is another module, whatever its name, and so are the
// packages under it.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module outer\n")
	write("a/a.go", "package a\n")
	write("bench/go.mod", "module outer/bench\n")
	write("bench/main.go", "package main\n")
	write("bench/sub/sub.go", "package sub\n")

	dirs, err := analysis.PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, dp := range dirs {
		got = append(got, dp[1])
	}
	if len(got) != 1 || got[0] != "outer/a" {
		t.Fatalf("PackageDirs = %v, want [outer/a]", got)
	}
}

func TestPathDirectiveOverridesImportPath(t *testing.T) {
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "noclock_bad"), "fixture/noclock_bad")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "eant/internal/core" {
		t.Fatalf("directive-overridden path %q, want eant/internal/core", pkg.Path)
	}
}
