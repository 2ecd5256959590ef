//go:build !linux

package devsim

import "testing"

// attempt runs check once: without /proc/stat there is no telling a slow
// model from a busy host, so the retries of the Linux attempt are not made.
func attempt(t *testing.T, check func() error) {
	t.Helper()
	if err := check(); err != nil {
		t.Fatal(err)
	}
}
