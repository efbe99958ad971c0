// Package users models the visitor population of the paper's field
// experiment (Sections 3.2–3.4): real visitors of mitmproxy.org — "a
// very technical and privacy-conscious audience" — who were shown
// Quantcast's consent dialog in one of two randomized configurations.
//
// Visitors differ in their privacy preference (accept, reject, or
// abandon), their interaction speed, whether they arrive from the EU
// (only EU visitors are shown the dialog under Quantcast's default
// configuration), and whether a previous visit already stored a global
// consensu.org consent cookie (repeat visitors see no dialog).
package users

import (
	"fmt"
	"math/rand"

	"repro/internal/rng"
)

// Preference is a visitor's intrinsic privacy preference.
type Preference int

const (
	// PrefAccept visitors intend to give consent.
	PrefAccept Preference = iota
	// PrefReject visitors intend to deny consent.
	PrefReject
	// PrefAbandon visitors make no decision (excluded from the
	// paper's analysis after three minutes).
	PrefAbandon
)

func (p Preference) String() string {
	switch p {
	case PrefAccept:
		return "accept"
	case PrefReject:
		return "reject"
	default:
		return "abandon"
	}
}

// Visitor is one page visitor of the experiment.
type Visitor struct {
	// ID is the random non-persistent identifier generated on page
	// load (the only linkage the paper's ethics design permits).
	ID string
	// EU reports whether the visitor appears to be in the EU.
	EU bool
	// HasConsentCookie marks repeat visitors whose earlier decision is
	// stored in the global Quantcast TCF cookie (checked via the
	// CookieAccess endpoint); they are not shown a dialog again.
	HasConsentCookie bool
	// Pref is the intrinsic privacy preference.
	Pref Preference
	// Speed scales all interaction latencies (1.0 = median visitor).
	Speed float64
	// Persistence is the visitor's tolerance for extra opt-out
	// effort in [0,1): low-persistence privacy-aware visitors give up
	// and accept when rejecting requires extra navigation — the
	// mechanism behind the 83% → 90% consent-rate shift.
	Persistence float64
}

// Config parameterizes the population.
type Config struct {
	Seed uint64
	// EUShare is the fraction of visitors from the EU.
	EUShare float64
	// RejectShare / AbandonShare are the intrinsic preference shares
	// (the rest accept). mitmproxy.org's privacy-conscious audience
	// rejects more than the average web population.
	RejectShare  float64
	AbandonShare float64
}

// repeatShare is the fraction of visitors with an existing consent
// cookie.
const repeatShare = 0.18

// DefaultConfig is calibrated so the experiment reproduces the
// Figure 10 sample sizes and consent rates (83% accept under config A).
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		EUShare:      0.42,
		RejectShare:  0.175,
		AbandonShare: 0.09,
	}
}

// Population deterministically generates visitors.
type Population struct {
	cfg Config
	src *rng.Source
}

// NewPopulation returns a population for the config.
func NewPopulation(cfg Config) *Population {
	return &Population{cfg: cfg, src: rng.New(cfg.Seed).Derive("users")}
}

// Visitor returns the i-th visitor. Identical (config, i) yield an
// identical visitor.
func (p *Population) Visitor(i int) Visitor {
	r := p.src.Stream("visitor", rng.Key(i))
	v := Visitor{
		ID:               fmt.Sprintf("v-%08x", r.Uint32()),
		EU:               r.Float64() < p.cfg.EUShare,
		HasConsentCookie: r.Float64() < repeatShare,
		Speed:            rng.LogNormal(r, 0, 0.35),
		Persistence:      r.Float64(),
	}
	u := r.Float64()
	switch {
	case u < p.cfg.RejectShare:
		v.Pref = PrefReject
	case u < p.cfg.RejectShare+p.cfg.AbandonShare:
		v.Pref = PrefAbandon
	default:
		v.Pref = PrefAccept
	}
	return v
}

// Stream returns the latency randomness for a visitor's session.
func (p *Population) Stream(v Visitor) *rand.Rand {
	return p.src.Stream("session", v.ID)
}
