package main

import "testing"

// TestRunSmall runs the feed smoke at reduced size: every mirror must match
// the node's pending-delete list after a two-day Drop.
func TestRunSmall(t *testing.T) {
	if err := run(10, 2, 100, 8, 1); err != nil {
		t.Fatal(err)
	}
}
