package main

import (
	"testing"
	"time"
)

// TestRunSmall runs the storm smoke at reduced size, single-zone and
// federated: exactly one winner per name, per zone and globally.
func TestRunSmall(t *testing.T) {
	for name, zones := range map[string]string{
		"single-zone": "",
		"federated":   "nordic=se+nu:instant@19:05;alt=org:random",
	} {
		t.Run(name, func(t *testing.T) {
			if err := run(8, "DropCatch,SnapNames,Pheenix,GoDaddy", zones, 0.25,
				25*time.Millisecond, 250*time.Millisecond, 1, 4, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}
