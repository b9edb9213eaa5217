// Package testutil holds the helpers the failure tests of several packages
// share. Only _test files import it.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// CheckNoLeak fails if more goroutines are alive than before the case
// started. Mux readers and responder workers unwind once their edge is
// closed or their run returns; give the scheduler a moment to retire them.
func CheckNoLeak(t testing.TB, before int, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%s: %d goroutines outlive the run (%d before)", label, n, before)
	}
}
