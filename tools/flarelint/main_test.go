package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExemptDirective drives the standalone run end to end over a
// throwaway module: a ctx-blind time.Sleep in a ctxflow-monitored
// package gates whatever comment sits above it. flarelint has no
// suppression directive, so //lint:exempt silences nothing.
func TestExemptDirective(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go list -export load in -short mode")
	}
	cases := []struct {
		name      string
		directive string
	}{
		{"bare violation", ""},
		{"reasoned exempt comment", "\t//lint:exempt ctxflow pacing a best-effort background probe\n"},
		{"reasonless exempt comment", "\t//lint:exempt ctxflow\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := "package server\n\nimport (\n\t\"context\"\n\t\"time\"\n)\n\n" +
				"func Wait(ctx context.Context) error {\n" + tc.directive +
				"\ttime.Sleep(time.Millisecond)\n\treturn ctx.Err()\n}\n"
			writeFile(t, filepath.Join(dir, "go.mod"), "module exempt\n\ngo 1.22\n")
			writeFile(t, filepath.Join(dir, "server", "server.go"), src)
			if got := run([]string{"-dir", dir, "./..."}); got != 1 {
				t.Errorf("run exit = %d, want 1", got)
			}
		})
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
