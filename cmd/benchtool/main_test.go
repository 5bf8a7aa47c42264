package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTemp writes content to a file under t.TempDir and returns its path.
func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "rec.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestValidateEmptyRecordsIsAnError: a capture with nothing in it must
// fail the gate — CI diffs and validates these files, and an empty one
// validating "ok" would wave every regression through silently.
func TestValidateEmptyRecordsIsAnError(t *testing.T) {
	for _, content := range []string{
		`[]`,
		`{}`,
		`{"experiments": []}`,
		`{"experiments": null}`,
	} {
		err := validate(writeTemp(t, content))
		if err == nil {
			t.Errorf("validate(%s) = nil, want 'no records' error", content)
			continue
		}
		if !strings.Contains(err.Error(), "no records") {
			t.Errorf("validate(%s) error = %q, want it to name 'no records'", content, err)
		}
	}
}

func TestValidateMalformedJSON(t *testing.T) {
	if err := validate(writeTemp(t, `{"experiments": 7}`)); err == nil {
		t.Error("validate accepted a non-array experiments field")
	}
	if err := validate(writeTemp(t, `not json`)); err == nil {
		t.Error("validate accepted non-JSON input")
	}
	if err := validate(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("validate accepted a missing file")
	}
}

const oneExperiment = `{"experiments": [{"name": "fig5b", "params": {"ops": 4},
  "table": {"title": "T", "columns": [{"name": "a"}, {"name": "b"}], "rows": [[1, 2]]}}]}`

// TestValidateWellFormedRecord covers both accepted shapes: the
// figureRecord object benchtool writes, and a bare array of experiment
// records.
func TestValidateWellFormedRecord(t *testing.T) {
	if err := validate(writeTemp(t, oneExperiment)); err != nil {
		t.Errorf("object form rejected: %v", err)
	}
	arr := `[{"name": "fig5b", "params": {}, "table": {"title": "T",
	  "columns": [{"name": "a"}], "rows": [[1]]}}]`
	if err := validate(writeTemp(t, arr)); err != nil {
		t.Errorf("array form rejected: %v", err)
	}
}

// TestValidateSchemaMismatch: a row whose cell count disagrees with the
// column schema must fail.
func TestValidateSchemaMismatch(t *testing.T) {
	bad := `{"experiments": [{"name": "x", "params": {},
	  "table": {"title": "T", "columns": [{"name": "a"}, {"name": "b"}], "rows": [[1]]}}]}`
	if err := validate(writeTemp(t, bad)); err == nil {
		t.Error("validate accepted a row/column mismatch")
	}
	empty := `{"experiments": [{"name": "x", "params": {},
	  "table": {"title": "T", "columns": [{"name": "a"}], "rows": []}}]}`
	if err := validate(writeTemp(t, empty)); err == nil {
		t.Error("validate accepted an empty table")
	}
	missing := `{"experiments": [{"name": "x", "params": {}}]}`
	if err := validate(writeTemp(t, missing)); err == nil {
		t.Error("validate accepted an experiment without a table")
	}
}

// TestStartProfilesWritesPprof: -cpuprofile and -memprofile each write
// a gzip-compressed pprof file once the run's profiles are stopped.
func TestStartProfilesWritesPprof(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpuPath, memPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s is not a gzip-compressed pprof profile (%d bytes)", filepath.Base(p), len(b))
		}
	}
}
