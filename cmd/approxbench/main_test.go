package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFormat(t *testing.T) {
	if err := run([]string{"-format", "xml", "-exp", "E3", "-frames", "60"}); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestRunBadFrames(t *testing.T) {
	if err := run([]string{"-exp", "E3", "-frames", "0"}); err == nil {
		t.Fatal("zero frames accepted")
	}
}

func TestRunSingleExperimentTable(t *testing.T) {
	if err := run([]string{"-exp", "E3", "-frames", "80"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperimentCSV(t *testing.T) {
	if err := run([]string{"-exp", "E13", "-frames", "80", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunByName(t *testing.T) {
	if err := run([]string{"-exp", "battery", "-frames", "80"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunThroughputTiny(t *testing.T) {
	path := t.TempDir() + "/tp.json"
	if err := run([]string{
		"-throughput", "-streams", "4", "-tp-frames", "4",
		"-throughput-json", path,
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"pool"`, `"pool-batched"`, `"speedup"`} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("report missing %s:\n%s", want, blob)
		}
	}
}
