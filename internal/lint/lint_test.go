package lint

import "testing"

// TestRepoIsLintClean is the tier-1 gate: it loads every package of the
// module and runs the full analyzer suite. Any violation anywhere in the
// tree fails `go test ./...`, so lint regressions cannot land.
func TestRepoIsLintClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walker is missing code", len(pkgs))
	}
	for _, d := range Check(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, err := ByName(a.Name)
		if err != nil || got != a {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, err)
		}
	}
	if _, err := ByName("no-such-rule"); err == nil {
		t.Error("ByName should reject unknown rules")
	}
}

// TestLoadHonoursBuildConstraints: the buildtags fixture declares one name in
// a _amd64.go file and again behind //go:build !amd64 (test files likewise),
// so it type-checks only if the loader keeps exactly the files the host's
// build compiles; and its //lint:hotpath function calls the declaration that
// has no body on amd64, which no analyzer may hold against it.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	pkg, err := LoadDir("testdata/src/buildtags", "buildtags")
	if err != nil {
		t.Fatalf("loading a package with per-architecture files: %v", err)
	}
	if len(pkg.Files) != 2 || len(pkg.TestFiles) != 2 {
		t.Errorf("loaded %d files and %d test files, want hot.go + one kern file and hot_test.go + one kern test file",
			len(pkg.Files), len(pkg.TestFiles))
	}
	for _, d := range Check([]*Package{pkg}, All()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
