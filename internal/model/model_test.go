package model

import (
	"testing"
	"time"

	"dropzero/internal/simtime"
)

func TestTLDOf(t *testing.T) {
	cases := []struct {
		name string
		tld  TLD
		ok   bool
	}{
		{"example.com", COM, true},
		{"example.net", NET, true},
		// TLDOf is structural only; whether "org" is hosted is the zone
		// registry's call (registry.Store.CheckName), not the parser's.
		{"example.org", "org", true},
		{"noext", "", false},
		{"trailing.", "", false},
		{"a.b.com", COM, true},
	}
	for _, c := range cases {
		tld, ok := TLDOf(c.name)
		if ok != c.ok || (ok && tld != c.tld) {
			t.Errorf("TLDOf(%q) = %q, %v; want %q, %v", c.name, tld, ok, c.tld, c.ok)
		}
	}
}

func TestStatusStringRoundTrip(t *testing.T) {
	for _, s := range []Status{StatusActive, StatusAutoRenew, StatusRedemption, StatusPendingDelete, StatusDeleted} {
		parsed, err := ParseStatus(s.String())
		if err != nil {
			t.Fatalf("ParseStatus(%q): %v", s.String(), err)
		}
		if parsed != s {
			t.Fatalf("round trip %v -> %q -> %v", s, s.String(), parsed)
		}
	}
}

func TestParseStatusUnknown(t *testing.T) {
	if _, err := ParseStatus("bogus"); err == nil {
		t.Fatal("ParseStatus(bogus) succeeded")
	}
}

func TestStatusStringOutOfRange(t *testing.T) {
	if s := Status(99).String(); s != "Status(99)" {
		t.Fatalf("String = %q", s)
	}
}

func TestDomainAgeYears(t *testing.T) {
	created := time.Date(2012, 6, 15, 10, 0, 0, 0, time.UTC)
	d := &Domain{Created: created}
	ref := time.Date(2018, 1, 2, 0, 0, 0, 0, time.UTC)
	if got := d.AgeYears(ref); got != 5 {
		t.Fatalf("AgeYears = %d, want 5", got)
	}
	// Reference before creation clamps to zero.
	if got := d.AgeYears(created.AddDate(-1, 0, 0)); got != 0 {
		t.Fatalf("AgeYears(before created) = %d, want 0", got)
	}
}

func TestSameDayRereg(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 2}
	o := &Observation{DeleteDay: day}
	if o.SameDayRereg() {
		t.Fatal("nil rereg counted as same-day")
	}
	o.Rereg = &Rereg{Time: day.At(19, 5, 0)}
	if !o.SameDayRereg() {
		t.Fatal("same-day rereg not detected")
	}
	o.Rereg = &Rereg{Time: day.Next().At(0, 0, 1)}
	if o.SameDayRereg() {
		t.Fatal("next-day rereg counted as same-day")
	}
}
