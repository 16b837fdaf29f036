// Package model defines the data types shared by the registry substrate, the
// wire protocols, the measurement pipeline and the analysis core: domain
// registrations, registrar identities, and the per-domain observation record
// that the paper's dataset is made of.
package model

import (
	"fmt"
	"strings"
	"time"

	"dropzero/internal/simtime"
)

// TLD is a top-level domain handled by the simulated registry. The paper
// measures .com; .net domains share the registry's single deletion process
// and show up as interleaved batches in the deletion order (§4.1).
type TLD string

// The two zones operated by the simulated Verisign-like registry.
const (
	COM TLD = "com"
	NET TLD = "net"
)

// TLDOf extracts the TLD from a fully qualified domain name, returning
// ok=false when the name has no dot or an empty suffix. It is purely
// structural: whether the suffix is a TLD some registry actually operates is
// the hosting store's zone registry's call, not the name's.
func TLDOf(name string) (TLD, bool) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 || i == len(name)-1 {
		return "", false
	}
	return TLD(name[i+1:]), true
}

// Status is the lifecycle state of a registration, following the expiration
// pipeline described in the paper's prior work ("WHOIS Lost in
// Translation"): an expired domain passes through the auto-renew grace
// period, the redemption period and pendingDelete before it is purged.
type Status uint8

// Lifecycle states in chronological order.
const (
	StatusActive Status = iota
	StatusAutoRenew
	StatusRedemption
	StatusPendingDelete
	StatusDeleted
)

var statusNames = [...]string{
	StatusActive:        "active",
	StatusAutoRenew:     "autoRenewPeriod",
	StatusRedemption:    "redemptionPeriod",
	StatusPendingDelete: "pendingDelete",
	StatusDeleted:       "deleted",
}

// String returns the EPP-style status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// ParseStatus is the inverse of Status.String.
func ParseStatus(s string) (Status, error) {
	for i, n := range statusNames {
		if n == s {
			return Status(i), nil
		}
	}
	return 0, fmt.Errorf("model: unknown status %q", s)
}

// Domain is one registration as stored by the registry. A Domain is
// identified by its registry-assigned ID (the repository object ID);
// re-registering a deleted name produces a new Domain with a new ID.
type Domain struct {
	ID          uint64 // registry object ID, strictly increasing with creation
	Name        string // fully qualified, lowercase
	TLD         TLD
	RegistrarID int // IANA ID of the sponsoring registrar

	Created time.Time // registration instant, second precision
	Updated time.Time // "last updated" — the primary deletion-order key
	Expiry  time.Time // current expiration date

	Status Status
	// DeleteDay is the scheduled deletion day once the domain has entered
	// pendingDelete; the zero value means no deletion is scheduled.
	DeleteDay simtime.Day
}

// Age returns the duration the registration had existed at the reference
// instant (typically its deletion day).
func (d *Domain) Age(ref time.Time) time.Duration { return ref.Sub(d.Created) }

// AgeYears returns the registration age in whole years at ref, the bucketing
// Figure 8 of the paper uses (1 year ... 6+ years).
func (d *Domain) AgeYears(ref time.Time) int {
	const year = 365 * 24 * time.Hour
	y := int(d.Age(ref) / year)
	if y < 0 {
		return 0
	}
	return y
}

// Contact is the (often shared) contact record attached to a registrar
// accreditation. The paper clusters registrars into services by matching
// these details; drop-catch services own hundreds of accreditations that
// reuse the same organisation and email domain.
type Contact struct {
	Org     string
	Email   string
	Street  string
	City    string
	Country string
	Phone   string
}

// Registrar is one ICANN accreditation known to the registry.
type Registrar struct {
	IANAID  int
	Name    string
	Contact Contact
	// Service is the ground-truth operator label used by the simulator to
	// drive behaviour and by the accuracy ablations; the measurement pipeline
	// never reads it — it recovers clusters from Contact alone.
	Service string
}

// PriorRegistration is the metadata the measurement pipeline collects about
// an expiring registration three days before its scheduled deletion.
type PriorRegistration struct {
	ID          uint64
	RegistrarID int
	Created     time.Time
	Updated     time.Time
	Expiry      time.Time
}

// Rereg records a re-registration observed at the T+8-weeks lookup.
type Rereg struct {
	Time        time.Time
	RegistrarID int
}

// Observation is one row of the study dataset: a domain from the pending
// delete list, its prior registration metadata, and — if the name was taken
// again — the re-registration event.
type Observation struct {
	Name      string
	TLD       TLD
	DeleteDay simtime.Day
	Prior     PriorRegistration
	// Rereg is nil when the name had not been re-registered by the time of
	// the second lookup.
	Rereg *Rereg
	// Malicious is the Safe Browsing-style label collected ≥9 weeks after
	// re-registration; always false when Rereg is nil.
	Malicious bool
}

// SameDayRereg reports whether the domain was re-registered on its deletion
// day — the approximation prior work used for "drop-catch".
func (o *Observation) SameDayRereg() bool {
	return o.Rereg != nil && simtime.DayOf(o.Rereg.Time) == o.DeleteDay
}

// DeletionEvent is the registry's ground-truth record of one deletion during
// a Drop. The simulator exports these so the ablation experiments can score
// the inference model against reality — something the paper could not do.
type DeletionEvent struct {
	DomainID uint64
	Name     string
	TLD      TLD
	Time     time.Time // the exact instant the name became available
	Rank     int       // 0-based position in that day's combined deletion queue
}
