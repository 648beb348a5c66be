package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestFixture runs the gate over testdata/fixture, whose internal/lib
// package declares one top-level name per case: a dead func, a func
// only its _test.go calls, a Min shadowed by math.Min, a Contains
// method shadowed by strings.Contains, a method reached only through an
// interface, a name used only bare inside its package, an allowlisted
// name, a dead Pos method beside a live Pos of another type, a String
// method only fmt calls, an unexported func called in its package, and
// an unexported dead func and test-only func. cmd/app's main is never
// reported.
func TestFixture(t *testing.T) {
	got, err := run("testdata/fixture", "testdata/fixture/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:14: fixture/internal/lib.Dead",
		"internal/lib/lib.go:17: fixture/internal/lib.TestOnly",
		"internal/lib/lib.go:20: fixture/internal/lib.Min",
		"internal/lib/lib.go:38: fixture/internal/lib.Set.Contains",
		"internal/lib/lib.go:50: fixture/internal/lib.Line.Pos",
		"internal/lib/lib.go:56: fixture/internal/lib.dead",
		"internal/lib/lib.go:59: fixture/internal/lib.testOnly",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dead names:\n got %q\nwant %q", got, want)
	}
}

// TestStaleAllowlist: an entry that names nothing, or a name that is
// referenced after all, fails the run instead of lingering.
func TestStaleAllowlist(t *testing.T) {
	for allow, name := range map[string]string{
		"stale.txt": "fixture/internal/lib.Gone",
		"used.txt":  "fixture/internal/lib.Used",
	} {
		_, err := run("testdata/fixture", "testdata/fixture/"+allow)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want one naming %s", allow, err, name)
		}
	}
}
