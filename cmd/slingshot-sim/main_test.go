package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags drives the run verb with flags no experiment can
// take and expects an error that names the experiment at most once: the
// registry wrapper prefixes the name, so the CLI must not add it again.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"fig2", "-seed", "0"},
		{"fig2", "-nodes", "-8"},
		{"fig2", "-panel", "D"},
	} {
		err := run(args)
		if err == nil {
			t.Errorf("run %q: no error", args)
			continue
		}
		if n := strings.Count(err.Error(), "fig2"); n > 1 {
			t.Errorf("run %q: error %q names the experiment %d times", args, err, n)
		}
	}
}
