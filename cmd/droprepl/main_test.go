package main

import "testing"

// TestRunSmall runs the failover smoke at reduced size: snapshot bootstrap,
// byte-identical surfaces, no acked loss across Promote, and a writable
// promoted node.
func TestRunSmall(t *testing.T) {
	if err := run(100, 2, 20); err != nil {
		t.Fatal(err)
	}
}
