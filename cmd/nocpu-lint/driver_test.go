package main_test

// End-to-end test of the wire-compatibility gate through the real
// `go vet -vettool` pipeline: a copy of internal/msg in a scratch
// module (same module path, so the lockfile rules apply) must vet
// clean and regenerate its committed lock byte for byte, a seeded
// breaking schema edit must fail with a diagnostic naming the kind and
// field, and a trailing-field addition must pass and survive
// NOCPU_REGEN_WIRELOCK regeneration.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestSeededWireBreakFailsVet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and runs go vet; skipped in -short")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}

	tool := filepath.Join(t.TempDir(), "nocpu-lint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/nocpu-lint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	// A scratch module named nocpu, holding only internal/msg: the
	// package keeps its real import path, so wireproto applies the
	// committed-lockfile rules to it.
	mod := t.TempDir()
	copyFile(t, filepath.Join(repoRoot, "go.mod"), filepath.Join(mod, "go.mod"))
	msgDir := filepath.Join(mod, "internal", "msg")
	copyTree(t, filepath.Join(repoRoot, "internal", "msg"), msgDir)

	vet := func(regen bool) (int, string) {
		cmd := exec.Command("go", "vet", "-vettool="+tool, "./internal/msg")
		cmd.Dir = mod
		cmd.Env = os.Environ()
		if regen {
			cmd.Env = append(cmd.Env, "NOCPU_REGEN_WIRELOCK=1")
		}
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), string(out)
		}
		t.Fatalf("go vet: %v\n%s", err, out)
		return -1, ""
	}

	if code, out := vet(false); code != 0 {
		t.Fatalf("pristine copy should vet clean, got exit %d:\n%s", code, out)
	}
	lockPath := filepath.Join(msgDir, "wire.lock")
	committed, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if code, out := vet(true); code != 0 {
		t.Fatalf("regenerating the pristine lock should succeed, got exit %d:\n%s", code, out)
	}
	if regen, err := os.ReadFile(lockPath); err != nil || string(regen) != string(committed) {
		t.Fatalf("regenerating the pristine lock changed it (%v):\n%s", err, regen)
	}

	typesPath := filepath.Join(msgDir, "types.go")
	pristine, err := os.ReadFile(typesPath)
	if err != nil {
		t.Fatal(err)
	}

	// Breaking edit: swap CreditUpdate's two same-typed fields. The
	// lockfile still has the old order; only the field names show it.
	const before = "u32(c, &m.Window)\n\tu32(c, &m.Credits)"
	const after = "u32(c, &m.Credits)\n\tu32(c, &m.Window)"
	if n := strings.Count(string(pristine), before); n != 1 {
		t.Fatalf("expected exactly one CreditUpdate wire site, found %d", n)
	}
	writeFile(t, typesPath, strings.Replace(string(pristine), before, after, 1))
	code, out := vet(false)
	if code == 0 {
		t.Fatalf("seeded field swap should fail vet:\n%s", out)
	}
	for _, want := range []string{"CreditUpdate", "Credits"} {
		if !strings.Contains(out, want) {
			t.Errorf("breaking-change diagnostic should name %q:\n%s", want, out)
		}
	}

	// Trailing addition: a new optional field after the locked prefix is
	// the sanctioned evolution path — it must pass against the old lock,
	// and regeneration must pin it. Heartbeat is the seed target because
	// it has no trailing optional yet (CreditUpdate's slot is taken by
	// ForInc, and only the last field may be conditional).
	src := string(pristine)
	src = strings.Replace(src,
		"type Heartbeat struct{ Seq uint64 }",
		"type Heartbeat struct {\n\tSeq  uint64\n\tBurst uint32 // optional burst hint (trailing, 0 = absent)\n}", 1)
	src = strings.Replace(src,
		"func (m *Heartbeat) wire(c *coder) { u64(c, &m.Seq) }",
		"func (m *Heartbeat) wire(c *coder) {\n\tu64(c, &m.Seq)\n\tc.optU32(&m.Burst)\n}", 1)
	if strings.Count(src, "Burst") != 2 { // struct field + optional op
		t.Fatal("trailing-addition edit did not apply")
	}
	writeFile(t, typesPath, src)
	if code, out := vet(false); code != 0 {
		t.Fatalf("trailing optional addition should pass against the old lock, got exit %d:\n%s", code, out)
	}
	if code, out := vet(true); code != 0 {
		t.Fatalf("lock regeneration should succeed, got exit %d:\n%s", code, out)
	}
	lock, err := os.ReadFile(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lock), "opt Burst") {
		t.Fatalf("regenerated lock should pin the new trailing field:\n%s", lock)
	}
	if code, out := vet(false); code != 0 {
		t.Fatalf("tree should vet clean against the regenerated lock, got exit %d:\n%s", code, out)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dst, string(data))
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		// Test files pull in the rest of the module; the scratch module
		// holds only the codec package (the fuzz corpus still copies —
		// it lives under testdata, not in a _test.go file).
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		copyFile(t, path, filepath.Join(dst, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
