package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// TestMain doubles the test binary as the lspmine CLI: when re-exec'd with
// LSPMINE_HELPER=1 it runs main() on its own arguments, so exit-code
// contracts can be asserted against a real process without building the
// command first.
func TestMain(m *testing.M) {
	if os.Getenv("LSPMINE_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// helperWorld writes a small noisy world the CLI can mine.
func helperWorld(t *testing.T) (dbPath, matrixPath string) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	const m = 6
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: 60, M: m, MinLen: 10, MaxLen: 14,
		Motifs:    []pattern.Pattern{pattern.MustNew(0, 1, 2)},
		PlantProb: 0.7,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, m, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	dbPath = filepath.Join(dir, "world.lsq")
	if err := seqdb.WriteFile(dbPath, noisy); err != nil {
		t.Fatal(err)
	}
	c, err := compat.UniformNoise(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	matrixPath = filepath.Join(dir, "world.compat")
	f, err := os.Create(matrixPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dbPath, matrixPath
}

// runHelper re-execs the test binary as lspmine with the given arguments,
// returning stdout, stderr, and the exit code.
func runHelper(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "LSPMINE_HELPER=1")
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err = cmd.Run()
	code = 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestDegradedRunExitCode is the CLI degradation contract: an expired Phase 3
// budget exits 3 (not 0, not 1), reports degraded=true in -metrics, and a
// rerun without the budget exits 0 on the same world.
func TestDegradedRunExitCode(t *testing.T) {
	dbPath, matrixPath := helperWorld(t)
	base := []string{
		"-db", dbPath, "-matrix", matrixPath,
		"-min-match", "0.30", "-max-len", "6",
		"-delta", "1e-2", "-sample", "30", "-seed", "2",
		"-metrics", "json",
	}

	// 1ns budget: Phase 3 expires before its first probe scan.
	stdout, stderr, code := runHelper(t, append([]string{"-phase-timeout", "1ns"}, base...)...)
	if code != 3 {
		t.Fatalf("degraded run exit code = %d, want 3\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	// stderr carries the human degradation warning first, then the snapshot.
	jsonStart := strings.Index(stderr, "{")
	if jsonStart < 0 {
		t.Fatalf("no JSON snapshot on stderr:\n%s", stderr)
	}
	var snap struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(stderr[jsonStart:]), &snap); err != nil {
		t.Fatalf("-metrics json did not parse: %v\nstderr:\n%s", err, stderr)
	}
	if !snap.Degraded {
		t.Errorf("-metrics output lacks degraded=true\nstderr:\n%s", stderr)
	}
	if !strings.Contains(stdout, "unresolved patterns") {
		t.Errorf("degraded run did not report its unresolved patterns\nstdout:\n%s", stdout)
	}

	// Same world, no budget: complete result, exit 0, degraded omitted.
	stdout, stderr, code = runHelper(t, base...)
	if code != 0 {
		t.Fatalf("healthy run exit code = %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.Contains(stderr, `"degraded": true`) {
		t.Errorf("healthy run reported degraded=true\nstderr:\n%s", stderr)
	}
}

// TestDegradedExitCodeWithJSONReport: the contract holds on the -json path
// too (the report and the exit code must agree).
func TestDegradedExitCodeWithJSONReport(t *testing.T) {
	dbPath, matrixPath := helperWorld(t)
	stdout, stderr, code := runHelper(t,
		"-db", dbPath, "-matrix", matrixPath,
		"-min-match", "0.30", "-max-len", "6",
		"-delta", "1e-2", "-sample", "30", "-seed", "2",
		"-phase-timeout", "1ns", "-json")
	if code != 3 {
		t.Fatalf("exit code = %d, want 3\nstderr:\n%s", code, stderr)
	}
	var rep struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("-json report did not parse: %v\nstdout:\n%s", err, stdout)
	}
	if !rep.Degraded {
		t.Error("JSON report not marked degraded while exit code was 3")
	}
}

func TestUsageExitCode(t *testing.T) {
	_, _, code := runHelper(t) // no -db/-matrix
	if code != 2 {
		t.Fatalf("usage error exit code = %d, want 2", code)
	}
}

// TestRetiredFinalizerRejected: -finalizer implicit names the retired value
// and its replacement, and exits 1 before any mining.
func TestRetiredFinalizerRejected(t *testing.T) {
	dbPath, matrixPath := helperWorld(t)
	_, stderr, code := runHelper(t, "-db", dbPath, "-matrix", matrixPath, "-finalizer", "implicit")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, `"implicit" is retired`) || !strings.Contains(stderr, `"collapse"`) {
		t.Errorf("stderr does not name the retired finalizer and its replacement:\n%s", stderr)
	}
}

// TestFollowPrintsEveryChangedSet drives the follower's report over
// one-sequence batches alternating "d1 d2" and "d2 d1" under the identity
// matrix at min_match 0.5: Phase 3 moves "d2 d1" in and out of the frequent
// set on every batch from the fifth. With -v -all the report must print the
// set on the first batch, on every batch whose set differs from the one
// printed last, and on the last batch.
func TestFollowPrintsEveryChangedSet(t *testing.T) {
	log, err := seqdb.CreateAppend(filepath.Join(t.TempDir(), "live.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	st, err := core.NewStream(log, compat.Identity(2), core.StreamConfig{
		Config: core.Config{MinMatch: 0.5, Delta: 0.2, MaxLen: 2}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := pattern.GenericAlphabet(2)
	var out strings.Builder
	rep := &followReport{w: &out, a: a, all: true, verbose: true}
	const batches = 12
	var want []string
	prev := ""
	for i := 1; i <= batches; i++ {
		seq := []pattern.Symbol{0, 1}
		if i%2 == 0 {
			seq = []pattern.Symbol{1, 0}
		}
		if _, err := log.Append(seq); err != nil {
			t.Fatal(err)
		}
		res, err := st.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		line := "  frequent:"
		for _, p := range res.Frequent.Patterns() {
			line += " " + a.Format(p)
		}
		if i == 1 || line != prev || i == batches {
			want = append(want, line)
		}
		prev = line
		rep.batch(i, res, i == batches)
	}
	var got []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "  frequent:") {
			got = append(got, l)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("printed sets:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
