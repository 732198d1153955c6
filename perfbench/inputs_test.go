package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDegreePreservingPerm(t *testing.T) {
	g, _ := appsInput(7)
	base, _ := appsInput(8)
	if g.NNZ() != base.NNZ() {
		t.Fatalf("relabeled graphs differ in size: %d vs %d", g.NNZ(), base.NNZ())
	}
	perm := degreePreservingPerm(&base.Pattern, 3)
	seen := make([]bool, len(perm))
	for v, w := range perm {
		if seen[w] {
			t.Fatalf("vertex %d is the image of two vertices", w)
		}
		seen[w] = true
		if dv, dw := base.RowPtr[v+1]-base.RowPtr[v], base.RowPtr[w+1]-base.RowPtr[w]; dv != dw {
			t.Fatalf("vertex %d (degree %d) maps to %d (degree %d)", v, dv, w, dw)
		}
	}
}

func TestGitCommit(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	if got := gitCommit(); got != "unknown" {
		t.Fatalf("no .git: commit %q, want unknown", got)
	}
	const hash = "6dee9ddb168617def8fc96946af4efebe5ab1df7"
	if err := os.MkdirAll(filepath.Join(".git", "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, data string) {
		if err := os.WriteFile(filepath.Join(".git", name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs with: peeled\n"+hash+" refs/heads/main\n")
	if got := gitCommit(); got != hash {
		t.Fatalf("packed ref: commit %q, want %q", got, hash)
	}
	write(filepath.Join("refs", "heads", "main"), hash+"\n")
	if got := gitCommit(); got != hash {
		t.Fatalf("loose ref: commit %q, want %q", got, hash)
	}
	write("HEAD", hash+"\n")
	if got := gitCommit(); got != hash {
		t.Fatalf("detached HEAD: commit %q, want %q", got, hash)
	}
}
