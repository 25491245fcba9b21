package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", p, err)
		}
	}

	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Error("CPU profile into a missing directory: want error")
	}
	stop, err = StartProfiles("", filepath.Join(dir, "missing", "mem.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("heap profile into a missing directory: want error")
	}
}
